// Cluster routing: what task placement costs when shard count is a
// scheduling variable.
//
// The example dispatches ONE Zipf-skewed multi-tenant arrival stream across
// a four-shard fleet under each bundled router and compares the tail flow
// time and the per-shard imbalance:
//
//   - round-robin spreads counts perfectly but is blind to backlog, so
//     unlucky volume draws pile onto one queue near saturation;
//   - hash-tenant pins tenants to shards (affinity), which a Zipf-skewed
//     mix punishes — the head tenant's whole load lands on one shard;
//   - least-backlog reads every shard's live backlog at dispatch time (the
//     coordinator interleaves shard events in one virtual timeline, so the
//     snapshots are exact) and always picks the shortest queue;
//   - po2 samples just two shards per dispatch with a seeded deterministic
//     RNG and takes the shorter queue — nearly least-backlog's tail at a
//     fraction of the information.
//
// Every run is byte-deterministic: same seed, same dispatch sequence, same
// report, at any GOMAXPROCS.
//
// Run with:
//
//	go run ./examples/cluster
//
// The same scenario at scale is available as
// `mwct loadtest -router po2 -tenant-skew 1.5`.
package main

import (
	"fmt"
	"log"

	malleable "github.com/malleable-sched/malleable"
)

func main() {
	const (
		shards   = 4
		perShard = 8 // processors per shard
		tasks    = 40000
		rate     = 57.6 // fleet-wide: ~90% offered load on the uniform class
		seed     = 7
	)
	workload := malleable.OnlineWorkload{
		Class:   "uniform",
		P:       perShard,
		Process: "poisson",
		Rate:    rate,
		Tenants: []malleable.TenantSpec{
			{Name: "t0", Weight: 4, Share: 1}, {Name: "t1", Weight: 2, Share: 1},
			{Name: "t2", Weight: 1, Share: 1}, {Name: "t3", Weight: 1, Share: 1},
			{Name: "t4", Weight: 1, Share: 1}, {Name: "t5", Weight: 1, Share: 1},
			{Name: "t6", Weight: 1, Share: 1}, {Name: "t7", Weight: 1, Share: 1},
		},
		TenantSkew: 1.5, // head tenant absorbs ~58% of the traffic
	}
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster: %d shards x p=%g, %d tasks, fleet rate %g, Zipf skew 1.5\n\n",
		shards, float64(perShard), tasks, float64(rate))
	fmt.Printf("%-14s %10s %10s %12s %14s\n", "router", "p50 flow", "p99 flow", "peak backlog", "completed min/max")
	for _, name := range malleable.RouterNames() {
		// A fresh stream per router: identical workload, different placement.
		stream, err := malleable.StreamArrivals(workload, tasks, seed)
		if err != nil {
			log.Fatal(err)
		}
		router, err := malleable.RouterByName(name, seed)
		if err != nil {
			log.Fatal(err)
		}
		// Workers > 1 advances the shards on a worker pool through batched
		// dispatch windows (the state-free routers here); the report is
		// byte-identical to a sequential run — the knob only changes
		// wall-clock time.
		res, err := malleable.Run(malleable.RunSpec{
			P:       perShard,
			Policy:  policy,
			Stream:  stream,
			Shards:  shards,
			Router:  router,
			Workers: shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.3f %10.3f %12d %8d/%d\n",
			name, res.Flow.P50, res.Flow.P99, res.PeakBacklog,
			res.MinShardCompleted, res.MaxShardCompleted)
	}
	fmt.Println("\nround-robin's tail comes from backlog-blind placement; hash-tenant's")
	fmt.Println("from affinity under skew. po2 buys almost all of least-backlog's tail")
	fmt.Println("with two sampled queues per dispatch instead of a full scan.")
}
