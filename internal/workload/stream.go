package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// Stream is the constant-memory form of GenerateArrivals: a pull iterator
// that draws the same deterministic arrival sequence one task at a time,
// holding only the generator state (two RNG streams, the tenant table and a
// burst counter) regardless of how many arrivals it will emit. It satisfies
// the engine's ArrivalStream contract — Next yields arrivals in
// non-decreasing release order and reports the end of the stream with
// ok=false — so a ten-million-task replay costs the same memory as a
// ten-task one.
//
// A Stream is single-use and not safe for concurrent use; create one per run
// (the sharded driver creates one per shard). Its two RNG states, nearly all
// the memory it allocates, are recycled for later streams once the last
// arrival is drawn.
type Stream struct {
	cfg      ArrivalConfig
	tenants  []TenantSpec
	shareSum float64
	shapes   *Generator
	rng      *rand.Rand

	n         int     // total arrivals to emit
	emitted   int     // arrivals emitted so far
	now       float64 // release date of the current burst
	burstLeft int     // tasks left in the current burst
}

// NewStream validates the configuration and prepares the streaming
// generator. The emitted sequence is a pure function of (cfg, n, seed) and is
// identical to the slice GenerateArrivals returns for the same inputs.
func NewStream(cfg ArrivalConfig, n int, seed int64) (*Stream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need at least one arrival, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Process != Poisson && cfg.Process != Bursty {
		return nil, fmt.Errorf("workload: unknown arrival process %d", int(cfg.Process))
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = DefaultTenants()
	}
	if cfg.TenantSkew > 0 {
		// The Zipf reshape only rescales the share table; it draws nothing,
		// so skew 0 leaves the random streams — and therefore existing
		// seeds — byte-identical.
		tenants = TenantSkew(tenants, cfg.TenantSkew)
	}
	var shareSum float64
	for _, t := range tenants {
		shareSum += t.Share
	}
	// Two decorrelated streams off the same seed: one for task shapes (via
	// the existing instance generator), one for the arrival process and the
	// tenant draw. Everything is a pure function of (cfg, n, seed).
	shapes, err := newGenerator(cfg.Class, 1, cfg.P, pooledRand(seed))
	if err != nil {
		return nil, err
	}
	return &Stream{
		cfg:      cfg,
		tenants:  tenants,
		shareSum: shareSum,
		shapes:   shapes,
		rng:      pooledRand(seed ^ 0x5deece66d),
		n:        n,
	}, nil
}

// randPool holds the RNG states of exhausted streams. A source is about
// 4.9 KB, and re-seeding one yields exactly the sequence of a fresh source,
// so a closed loop of runs over fresh streams allocates almost nothing.
var randPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// pooledRand returns an RNG seeded with seed, recycled when one is free.
func pooledRand(seed int64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Next draws the next arrival. It returns ok=false once the configured
// number of arrivals has been emitted; it never returns an error (the
// configuration was fully validated by NewStream), but carries the error
// return so it satisfies the engine's ArrivalStream interface directly.
func (s *Stream) Next() (schedule.Arrival, bool, error) {
	if s.emitted >= s.n {
		return schedule.Arrival{}, false, nil
	}
	if s.burstLeft == 0 {
		switch s.cfg.Process {
		case Poisson:
			s.now += s.rng.ExpFloat64() / s.cfg.Rate
			s.burstLeft = 1
		case Bursty:
			// Bursts arrive at rate Rate/MeanBurst; sizes are geometric with
			// mean MeanBurst, so the long-run task rate stays Rate. The draw
			// is capped at the tasks still needed: the excess would be
			// discarded anyway, and without the cap a huge MeanBurst (legal
			// per Validate) spins this loop ~MeanBurst iterations.
			s.now += s.rng.ExpFloat64() * s.cfg.MeanBurst / s.cfg.Rate
			s.burstLeft = 1
			for s.burstLeft < s.n-s.emitted && s.rng.Float64() >= 1/s.cfg.MeanBurst {
				s.burstLeft++
			}
		}
	}
	task := s.shapes.NextTask()
	tenant := 0
	u := s.rng.Float64() * s.shareSum
	for i, t := range s.tenants {
		if u < t.Share || i == len(s.tenants)-1 {
			tenant = i
			break
		}
		u -= t.Share
	}
	task.Weight *= s.tenants[tenant].Weight
	task.Name = s.tenants[tenant].Name
	if s.cfg.CurveMax > 0 {
		task.Curve = s.cfg.CurveMin + (s.cfg.CurveMax-s.cfg.CurveMin)*s.rng.Float64()
	}
	s.burstLeft--
	s.emitted++
	if s.emitted == s.n {
		// Nothing draws again: hand the RNG states back.
		randPool.Put(s.rng)
		randPool.Put(s.shapes.rng)
		s.rng, s.shapes = nil, nil
	}
	return schedule.Arrival{Task: task, Release: s.now, Tenant: tenant}, true, nil
}
