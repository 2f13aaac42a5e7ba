package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// RouteKey is what a policy routes on: the raw group key the router
// derives from request fields (the best pre-normalization guess at
// the query's preprocessing identity) and the dataset name alone for
// coarse consistent-hash placement.
type RouteKey struct {
	// GroupKey fingerprints the request fields that determine the
	// preprocessing instance: dataset, skyline toggle, seed, sample
	// size (or the ε/σ pair that derives it). Two requests with equal
	// GroupKeys share an instance; unequal GroupKeys may still
	// normalize to the same instance — the learned affinity map
	// closes that gap.
	GroupKey string
	// Dataset is the dataset name, the consistent-hash placement key.
	Dataset string
}

// Policy picks the replica for one routing decision. Candidates are
// the currently routable replicas in registration order, never empty.
// The reason labels the decision in famrouter_route_decisions_total —
// policies reuse the same vocabulary ("affinity", "ring",
// "least-loaded", ...) so dashboards can tell a learned-map hit from
// a cold placement from a fallback.
type Policy interface {
	Name() string
	Pick(key RouteKey, candidates []*Replica) (*Replica, string)
}

// Learner is implemented by policies that learn from served
// responses. The router calls Learn with the real normalized instance
// key echoed on X-Fam-Instance-Key and the replica that served it.
type Learner interface {
	Learn(key RouteKey, instanceKey string, served *Replica)
}

// RoundRobin cycles candidates in order, ignoring load and affinity —
// the control-group policy: it provably spreads identical queries
// across replicas, which is exactly what makes it the baseline the
// affinity integration test compares against.
type RoundRobin struct {
	next atomic.Uint64
}

func (p *RoundRobin) Name() string { return "round-robin" }

func (p *RoundRobin) Pick(_ RouteKey, candidates []*Replica) (*Replica, string) {
	return candidates[(p.next.Add(1)-1)%uint64(len(candidates))], "round-robin"
}

// LeastLoaded picks the replica with the lowest live load: the
// router's own in-flight count plus the queue depth from the last
// health check. Ties break toward the earlier replica, which keeps
// single-stream traffic on one warm replica instead of striping it.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Pick(_ RouteKey, candidates []*Replica) (*Replica, string) {
	return minBy(candidates, loadScore), "least-loaded"
}

// loadScore is the live queue pressure of one replica.
func loadScore(r *Replica) float64 {
	score := float64(r.Inflight())
	if h := r.Health(); h != nil {
		score += float64(h.QueueDepth)
	}
	return score
}

// minBy returns the candidate with the lowest score, first wins ties.
func minBy(candidates []*Replica, score func(*Replica) float64) *Replica {
	best, bestScore := candidates[0], score(candidates[0])
	for _, r := range candidates[1:] {
		if s := score(r); s < bestScore {
			best, bestScore = r, s
		}
	}
	return best
}

// Affinity routes each preprocessing instance to one owner replica so
// its prep and result caches fill exactly once cluster-wide.
//
// Placement is layered. The learned map is consulted first: raw group
// key → normalized instance key (taught by X-Fam-Instance-Key echoes)
// → the replica that last served that instance. A miss falls back to
// consistent hashing over the dataset name — deterministic, so even
// a cold router sends a dataset's queries to one replica. Either way,
// an owner that is down or shedding is abandoned for the least-loaded
// candidate; the learned map self-heals because the fallback replica
// becomes the new owner the moment it serves the instance.
type Affinity struct {
	// ShedCooldown is how long one observed 429/503 keeps routing
	// away from an owner. Default 2s.
	ShedCooldown time.Duration
	// ShedThreshold is the health-check shed rate above which an
	// owner counts as shedding. Default 0.5.
	ShedThreshold float64

	ring     *ring
	fallback LeastLoaded
	clock    func() time.Time

	mu     sync.Mutex
	groups map[string]string   // raw group key → normalized instance key
	owners map[string]*Replica // instance key → last replica to serve it
}

// NewAffinity builds the affinity policy over the full membership.
func NewAffinity(replicas []*Replica) *Affinity {
	return &Affinity{
		ShedCooldown:  2 * time.Second,
		ShedThreshold: 0.5,
		ring:          newRing(replicas),
		clock:         time.Now,
		groups:        make(map[string]string),
		owners:        make(map[string]*Replica),
	}
}

func (p *Affinity) Name() string { return "affinity" }

func (p *Affinity) Pick(key RouteKey, candidates []*Replica) (*Replica, string) {
	if owner := p.learnedOwner(key.GroupKey); owner != nil {
		if owner.Up() && !owner.Shedding(p.clock(), p.ShedCooldown, p.ShedThreshold) {
			return owner, "affinity"
		}
		r, _ := p.fallback.Pick(key, candidates)
		return r, "affinity-fallback"
	}
	if owner := p.ring.owner(key.Dataset); owner != nil {
		if !owner.Shedding(p.clock(), p.ShedCooldown, p.ShedThreshold) {
			return owner, "ring"
		}
		r, _ := p.fallback.Pick(key, candidates)
		return r, "ring-fallback"
	}
	r, _ := p.fallback.Pick(key, candidates)
	return r, "least-loaded"
}

// learnedOwner resolves group key → instance key → owner, nil on any
// gap in the chain.
func (p *Affinity) learnedOwner(groupKey string) *Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	inst, ok := p.groups[groupKey]
	if !ok {
		return nil
	}
	return p.owners[inst]
}

// Learn records that served answered instanceKey for this group key.
// Ownership follows the latest server, so a fallback replica that
// absorbed an owner's traffic keeps it — its caches are the warm ones
// now — instead of traffic snapping back to a cold owner.
func (p *Affinity) Learn(key RouteKey, instanceKey string, served *Replica) {
	if instanceKey == "" || served == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[key.GroupKey] = instanceKey
	p.owners[instanceKey] = served
}
