package mf

import (
	"math"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
)

func trainSmall(t *testing.T) (*dataset.RatingsData, *Model) {
	t.Helper()
	data, err := dataset.SimulatedRatings(80, 40, 3, 3, 0.6, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Seed = 2
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data, m
}

func TestTrainReducesRMSE(t *testing.T) {
	data, m := trainSmall(t)
	// Baseline: predicting the global mean for everything.
	var sum float64
	for _, r := range data.Ratings {
		sum += r.Score
	}
	mean := sum / float64(len(data.Ratings))
	var se float64
	for _, r := range data.Ratings {
		d := r.Score - mean
		se += d * d
	}
	baseline := math.Sqrt(se / float64(len(data.Ratings)))
	got, err := m.RMSE(data.Ratings)
	if err != nil {
		t.Fatal(err)
	}
	if got >= baseline*0.5 {
		t.Fatalf("training RMSE %v should beat mean baseline %v by 2x", got, baseline)
	}
}

func TestGeneralization(t *testing.T) {
	// Train on a sparse sample; check predictions correlate with the
	// planted scores on held-out cells.
	data, err := dataset.SimulatedRatings(100, 50, 3, 3, 0.4, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Seed = 3
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed := make(map[[2]int]bool, len(data.Ratings))
	for _, r := range data.Ratings {
		observed[[2]int{r.User, r.Item}] = true
	}
	// Pearson correlation between predicted and planted on unobserved cells.
	var xs, ys []float64
	for u := 0; u < data.NumUsers; u++ {
		for i := 0; i < data.NumItems; i++ {
			if observed[[2]int{u, i}] {
				continue
			}
			var truth float64
			for f := 0; f < 3; f++ {
				truth += data.TrueUserF[u][f] * data.TrueItemF[i][f]
			}
			xs = append(xs, truth)
			ys = append(ys, m.Predict(u, i))
		}
	}
	if len(xs) < 100 {
		t.Fatalf("too few held-out cells: %d", len(xs))
	}
	if r := pearson(xs, ys); r < 0.8 {
		t.Fatalf("held-out correlation %v < 0.8", r)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	return cov / math.Sqrt(vx*vy)
}

func TestTrainValidation(t *testing.T) {
	data, _ := dataset.SimulatedRatings(10, 10, 2, 2, 0.5, 0, 1)
	bad := []Config{
		{Rank: 0, Epochs: 1, LearnRate: 0.1, InitScale: 0.1},
		{Rank: 2, Epochs: 0, LearnRate: 0.1, InitScale: 0.1},
		{Rank: 2, Epochs: 1, LearnRate: 0, InitScale: 0.1},
		{Rank: 2, Epochs: 1, LearnRate: 0.1, Reg: -1, InitScale: 0.1},
		{Rank: 2, Epochs: 1, LearnRate: 0.1, InitScale: 0},
	}
	for i, cfg := range bad {
		if _, err := Train(data, cfg); err == nil {
			t.Errorf("bad config %d should error", i)
		}
	}
	if _, err := Train(nil, DefaultConfig(2)); err == nil {
		t.Fatal("nil data must error")
	}
	if _, err := Train(&dataset.RatingsData{NumUsers: 2, NumItems: 2,
		Ratings: []dataset.Rating{{User: 5, Item: 0, Score: 1}}}, DefaultConfig(2)); err == nil {
		t.Fatal("out-of-range rating must error")
	}
}

func TestPredictBounds(t *testing.T) {
	_, m := trainSmall(t)
	if got := m.Predict(-1, 0); got != m.GlobalMean {
		t.Fatalf("out-of-range user should predict mean, got %v", got)
	}
	if got := m.Predict(0, 9999); got != m.GlobalMean {
		t.Fatalf("out-of-range item should predict mean, got %v", got)
	}
}

func TestRMSEEmpty(t *testing.T) {
	_, m := trainSmall(t)
	if _, err := m.RMSE(nil); err == nil {
		t.Fatal("empty RMSE must error")
	}
}

func TestWeightVectorItemPointsConsistency(t *testing.T) {
	_, m := trainSmall(t)
	points := m.ItemPoints()
	users := m.UserVectors()
	for u := 0; u < 5; u++ {
		w := WeightVector(users[u])
		if len(w) != m.Rank+2 || len(points[0]) != m.Rank+2 {
			t.Fatalf("layout mismatch: %d vs %d", len(w), len(points[0]))
		}
		for i := 0; i < 5; i++ {
			var dot float64
			for j := range w {
				dot += w[j] * points[i][j]
			}
			if math.Abs(dot-m.Predict(u, i)) > 1e-9 {
				t.Fatalf("dot(%d,%d) = %v, Predict = %v", u, i, dot, m.Predict(u, i))
			}
		}
	}
}

func TestNonNegGate(t *testing.T) {
	data, _ := dataset.SimulatedRatings(40, 20, 2, 2, 0.6, 0.02, 7)
	cfg := DefaultConfig(2)
	cfg.NonNegGate = true
	m, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.UserF {
		for _, v := range f {
			if v < 0 {
				t.Fatal("NonNegGate must keep user factors non-negative")
			}
		}
	}
	for _, f := range m.ItemF {
		for _, v := range f {
			if v < 0 {
				t.Fatal("NonNegGate must keep item factors non-negative")
			}
		}
	}
}

func TestTrainDeterminism(t *testing.T) {
	data, _ := dataset.SimulatedRatings(30, 15, 2, 2, 0.5, 0.02, 3)
	cfg := DefaultConfig(2)
	m1, err1 := Train(data, cfg)
	m2, err2 := Train(data, cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for u := range m1.UserF {
		for j := range m1.UserF[u] {
			if m1.UserF[u][j] != m2.UserF[u][j] {
				t.Fatal("same seed must reproduce the model")
			}
		}
	}
}
