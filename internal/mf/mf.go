// Package mf implements biased stochastic-gradient matrix factorization,
// the first stage of the Yahoo!-style pipeline (Section V-B2): given a
// sparse ratings matrix it learns user and item latent factors so that the
// utility of every (user, item) pair can be inferred, including unobserved
// cells. The resulting item factors become the "points" of a latent-space
// FAM instance and the user factors feed the GMM of internal/gmm.
package mf

import (
	"errors"
	"fmt"
	"math"

	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/rng"
)

// Config controls training.
type Config struct {
	Rank       int     // latent dimensionality
	Epochs     int     // SGD passes over the ratings
	LearnRate  float64 // SGD step size
	Reg        float64 // L2 regularization strength
	InitScale  float64 // initial factor magnitude
	Seed       uint64  // RNG seed for init and shuffling
	NonNegGate bool    // project factors onto the non-negative orthant each step
}

// DefaultConfig returns sensible small-scale defaults.
func DefaultConfig(rank int) Config {
	return Config{
		Rank:      rank,
		Epochs:    60,
		LearnRate: 0.02,
		Reg:       0.05,
		InitScale: 0.1,
		Seed:      1,
	}
}

// Model is a trained factorization.
type Model struct {
	Rank       int
	UserF      [][]float64 // numUsers x Rank
	ItemF      [][]float64 // numItems x Rank
	UserBias   []float64
	ItemBias   []float64
	GlobalMean float64
}

// ErrBadConfig reports invalid training parameters.
var ErrBadConfig = errors.New("mf: bad config")

// Train factorizes the ratings with SGD.
func Train(data *dataset.RatingsData, cfg Config) (*Model, error) {
	if data == nil || len(data.Ratings) == 0 {
		return nil, errors.New("mf: no ratings")
	}
	if cfg.Rank <= 0 || cfg.Epochs <= 0 || cfg.LearnRate <= 0 || cfg.Reg < 0 || cfg.InitScale <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	g := rng.New(cfg.Seed)
	m := &Model{
		Rank:     cfg.Rank,
		UserF:    randFactors(data.NumUsers, cfg.Rank, cfg.InitScale, g),
		ItemF:    randFactors(data.NumItems, cfg.Rank, cfg.InitScale, g),
		UserBias: make([]float64, data.NumUsers),
		ItemBias: make([]float64, data.NumItems),
	}
	var sum float64
	for _, r := range data.Ratings {
		if r.User < 0 || r.User >= data.NumUsers || r.Item < 0 || r.Item >= data.NumItems {
			return nil, fmt.Errorf("mf: rating out of range: %+v", r)
		}
		sum += r.Score
	}
	m.GlobalMean = sum / float64(len(data.Ratings))

	order := make([]int, len(data.Ratings))
	for i := range order {
		order[i] = i
	}
	lr, reg := cfg.LearnRate, cfg.Reg
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			r := data.Ratings[idx]
			uf, vf := m.UserF[r.User], m.ItemF[r.Item]
			pred := m.GlobalMean + m.UserBias[r.User] + m.ItemBias[r.Item] + dot(uf, vf)
			err := r.Score - pred
			m.UserBias[r.User] += lr * (err - reg*m.UserBias[r.User])
			m.ItemBias[r.Item] += lr * (err - reg*m.ItemBias[r.Item])
			for f := 0; f < cfg.Rank; f++ {
				u, v := uf[f], vf[f]
				uf[f] += lr * (err*v - reg*u)
				vf[f] += lr * (err*u - reg*v)
				if cfg.NonNegGate {
					if uf[f] < 0 {
						uf[f] = 0
					}
					if vf[f] < 0 {
						vf[f] = 0
					}
				}
			}
		}
	}
	return m, nil
}

func randFactors(n, rank int, scale float64, g *rng.RNG) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		f := make([]float64, rank)
		for j := range f {
			f[j] = scale * g.Float64()
		}
		out[i] = f
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Predict returns the model's score for (user, item); indices out of range
// return the global mean.
func (m *Model) Predict(user, item int) float64 {
	if user < 0 || user >= len(m.UserF) || item < 0 || item >= len(m.ItemF) {
		return m.GlobalMean
	}
	return m.GlobalMean + m.UserBias[user] + m.ItemBias[item] + dot(m.UserF[user], m.ItemF[item])
}

// RMSE returns the root-mean-square error over the given ratings.
func (m *Model) RMSE(ratings []dataset.Rating) (float64, error) {
	if len(ratings) == 0 {
		return 0, errors.New("mf: RMSE of empty rating set")
	}
	var se float64
	for _, r := range ratings {
		d := r.Score - m.Predict(r.User, r.Item)
		se += d * d
	}
	return math.Sqrt(se / float64(len(ratings))), nil
}

// UserVectors returns the learned user latent vectors augmented with the
// user bias as a trailing coordinate — the representation the GMM is fit
// on. (Including the bias lets the mixture capture overall rating level.)
func (m *Model) UserVectors() [][]float64 {
	out := make([][]float64, len(m.UserF))
	for u, f := range m.UserF {
		v := make([]float64, m.Rank+1)
		copy(v, f)
		v[m.Rank] = m.UserBias[u]
		out[u] = v
	}
	return out
}

// ItemPoints returns the learned item factors as latent-space "points" for
// a FAM instance, with the additive item-side terms folded into extra
// coordinates: each point has Rank+2 columns
//
//	[factors..., itemBias+globalMean, 1].
//
// Paired with WeightVector, dot(WeightVector(uv), point_i) == Predict(u, i)
// where uv is row u of UserVectors.
func (m *Model) ItemPoints() [][]float64 {
	out := make([][]float64, len(m.ItemF))
	for i, f := range m.ItemF {
		p := make([]float64, m.Rank+2)
		copy(p, f)
		p[m.Rank] = m.ItemBias[i] + m.GlobalMean
		p[m.Rank+1] = 1
		out[i] = p
	}
	return out
}

// WeightVector maps a user latent vector in the UserVectors layout
// [factors..., userBias] (Rank+1 values — either a learned row or a GMM
// sample) to the weight layout matching ItemPoints:
//
//	[factors..., 1, userBias].
//
// With this layout, dot(weight, itemPoint) reproduces the model's
// prediction for the user described by the latent vector.
func WeightVector(latent []float64) []float64 {
	rank := len(latent) - 1
	out := make([]float64, rank+2)
	copy(out, latent[:rank])
	out[rank] = 1
	out[rank+1] = latent[rank]
	return out
}
