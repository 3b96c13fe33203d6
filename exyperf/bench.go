package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"exysim/internal/obs"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// setupReps is how many times an untraced run stands its topology up;
// setup_s is the median.
const setupReps = 5

// endToEnd lists the metrics an untraced run reports, with units. Every
// workload reports every one; BENCHMARK.json carries the same names.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"sim_minsts_per_s":  "Minst/s",
	"pop_latency_p50_s": "s",
	"peak_rss_mb":       "MB",
}

// execute runs one workload end to end and assembles its report.
func execute(cfg config, w workloadDef) (*report, error) {
	b := &bench{
		cfg: cfg,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2*cfg.clients + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
		tinySlices: len(workload.Suite(workload.TinySpec)),
	}
	for i := 0; i < cfg.clients; i++ {
		b.refs = append(b.refs, newHostRef(cfg.seed+uint64(i)))
	}
	defer b.http.CloseIdleConnections()
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Clients: cfg.clients, Extra: map[string]metric{}, Samples: map[string]int{},
	}
	dur := time.Duration(cfg.seconds) * time.Second

	setup := func(rep int) (*topology, float64, error) {
		t0 := time.Now()
		t, err := w.setup(b, rep)
		return t, elapsed(t0), err
	}
	top, d, err := setup(0)
	setups := []float64{d}
	if err != nil {
		if top != nil {
			top.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	streams := make([]*stream, cfg.clients)
	for i := range streams {
		streams[i] = b.stream(top, w.kind(i), i)
	}

	var win, plain window
	var profiles []string
	before := snapshotCounters(top)
	if cfg.traced {
		plain, win, profiles, err = b.tracedWindows(top, streams, dur)
		if err != nil {
			top.close()
			return nil, err
		}
	} else {
		win = b.run(top, streams, dur, 2*minBeyond)
	}
	after := snapshotCounters(top)
	rep.Problems = append(rep.Problems, trafficChecks(cfg.workload, before, after, win, plain)...)

	var pop *tracestore.Population
	var getMs float64
	if top.meta.ID != "" {
		if pop, err = top.population(b); err != nil {
			top.close()
			return nil, err
		}
		if cfg.traced {
			getMs, err = timeStoreGet(top)
			if err != nil {
				top.close()
				return nil, err
			}
		}
	}
	if err := top.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if !cfg.traced {
		for i := 1; i < setupReps; i++ {
			t, d, err := setup(i)
			if t != nil {
				if cerr := t.close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i+1, err)
			}
			setups = append(setups, d)
		}
	}

	all := append(append([]sample(nil), plain.ok...), win.ok...)
	refs, mismatches := b.reference(all, pop)
	rep.Problems = append(rep.Problems, mismatches...)

	attempted := win.attempted + plain.attempted
	failed := win.failed + plain.failed + len(mismatches)
	for _, e := range append(plain.errs, win.errs...) {
		rep.Problems = append(rep.Problems, "request failed: "+e)
	}
	metrics := map[string]metric{}
	if cfg.traced {
		if err := b.layerMetrics(rep, metrics, top, profiles, plain, win, before, after, refs, getMs); err != nil {
			return nil, err
		}
	} else {
		if win.rssErr != nil {
			return nil, win.rssErr
		}
		if err := endToEndMetrics(rep, metrics, win, setups); err != nil {
			return nil, err
		}
	}
	rep.Result = result{
		Correct:   len(rep.Problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	if attempted > 0 {
		rep.Extra["failed_frac"] = metric{float64(failed) / float64(attempted), "frac"}
	}
	return rep, nil
}

// endToEndMetrics fills the untraced run's metrics from its window.
// The window's throughput and latency are expressed at the reference
// kernel's nominal speed (see hostref.go), using the speed measured
// between the window's requests; the two figures as timed on this host
// are extra lines prefixed "raw.". Set-up time is as timed: a burst of the
// kernel around each set-up tracked the set-ups' speed worse than no
// correction at all.
func endToEndMetrics(rep *report, m map[string]metric, win window, setups []float64) error {
	if win.ref.cpu <= 0 {
		return fmt.Errorf("the host-speed reference never ran")
	}
	speed := win.ref.speed()
	rep.Extra["host_speed"] = metric{speed, "ratio"}
	nominal := func(name string, v float64) {
		rep.Extra["raw."+name] = metric{v, endToEnd[name]}
		if endToEnd[name] == "Minst/s" {
			v /= speed
		} else {
			v *= speed
		}
		m[name] = metric{v, endToEnd[name]}
	}
	m["setup_s"] = metric{median(setups), "s"}
	nominal("sim_minsts_per_s", win.rate)
	m["peak_rss_mb"] = metric{win.rssMB, "MB"}
	pops := win.latencies(kindPopulation, func(s sample) float64 { return s.latency })
	rep.Samples["pop_latency"] = len(pops)
	p50, ok := percentile(pops, 0.5)
	if !ok {
		return fmt.Errorf("%d population requests completed; the median needs %d", len(pops), 2*minBeyond)
	}
	nominal("pop_latency_p50_s", p50)
	if q, ok := quartiles(pops); ok {
		rep.Extra["pop_latency_q1_s"] = metric{q[0], "s"}
		rep.Extra["pop_latency_q3_s"] = metric{q[2], "s"}
	}
	// Slice latencies exist on serve_mixed only, so they are reported
	// beside the contract metrics rather than in them.
	if sl := win.latencies(kindSlice, func(s sample) float64 { return s.latency }); len(sl) > 0 {
		rep.Samples["slice_latency"] = len(sl)
		for _, p := range []struct {
			name string
			q    float64
		}{{"slice_latency_p50_s", 0.5}, {"slice_latency_p90_s", 0.9}} {
			if v, ok := percentile(sl, p.q); ok {
				rep.Extra[p.name] = metric{v, "s"}
			}
		}
	}
	return checkNames(m, endToEnd)
}

// checkNames guards the contract: a run reports exactly the declared
// metric set, with the declared units.
func checkNames(m map[string]metric, want map[string]string) error {
	for name, unit := range want {
		got, ok := m[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s = %v %s, want a finite value in %s", name, got.Value, got.Unit, unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(m), len(want))
	}
	return nil
}

// counters are the public counters the traffic checks and the traced
// metrics difference across a window.
type counters struct {
	resultHits     float64 // serve result-cache hits, front server
	shardHits      uint64  // fabric shard-cache hits
	shardMisses    uint64
	leasesExpired  uint64
	localRuns      uint64  // shards the coordinator ran itself
	forks          float64 // warm-snapshot forks, all servers
	captures       float64
	queueWait      obs.HistogramSnapshot
	shardBusyNanos int64
	shards         int64
}

func snapshotCounters(t *topology) counters {
	m := t.front.srv.Metrics()
	fs := t.front.srv.Fabric().Stats()
	c := counters{
		resultHits:    m.Get("serve.cache_hits"),
		shardHits:     fs.CacheHits,
		shardMisses:   fs.CacheMisses,
		leasesExpired: fs.LeasesExpired,
		localRuns:     fs.LocalRuns,
		queueWait:     m.Hists["serve.queue_wait_us"],
	}
	for _, s := range t.servers() {
		sm := s.srv.Metrics()
		c.forks += sm.Get("serve.warm.snapshot_forks")
		c.captures += sm.Get("serve.warm.snapshot_captures")
	}
	if t.shard != nil {
		c.shardBusyNanos, c.shards = t.shard.busy.Load(), t.shard.shards.Load()
	}
	return c
}

// forkRatio is the share of warm-cache-eligible pairs that forked from a
// stored snapshot instead of warming cold.
func forkRatio(a, b counters) float64 {
	forks, caps := b.forks-a.forks, b.captures-a.captures
	if forks+caps == 0 {
		return 0
	}
	return forks / (forks + caps)
}

// trafficChecks asserts, from the servers' public counters, that each
// workload exercised the path it claims to measure.
func trafficChecks(name string, before, after counters, wins ...window) []string {
	var probs []string
	if d := after.resultHits - before.resultHits; d != 0 {
		probs = append(probs, fmt.Sprintf("traffic: %v result-cache hits in the scored window, want 0", d))
	}
	switch name {
	case "serve_mixed":
		if f := after.forks - before.forks; f != 0 {
			probs = append(probs, fmt.Sprintf("traffic: %v warm-snapshot forks on fresh-seed traffic, want 0", f))
		}
	case "fabric_cold":
		if d := after.shardHits - before.shardHits; d != 0 {
			probs = append(probs, fmt.Sprintf("traffic: %d shard-cache hits, want 0", d))
		}
		if after.shardMisses == before.shardMisses {
			probs = append(probs, "traffic: no shard was computed by the fabric")
		}
		if d := after.localRuns - before.localRuns; d != 0 {
			probs = append(probs, fmt.Sprintf("traffic: coordinator ran %d shards itself, want all on workers", d))
		}
	case "m7_explore":
		// M1–M6 fork from the primed snapshots; only the new M7 warms cold.
		if r := forkRatio(before, after); math.Abs(r-6.0/7) > 0.02 {
			probs = append(probs, fmt.Sprintf("traffic: warm-fork ratio %.3f, want about 6/7", r))
		}
	}
	n := 0
	for _, w := range wins {
		n += len(w.ok)
	}
	if n == 0 && len(wins) > 0 {
		probs = append(probs, "traffic: no request completed")
	}
	return probs
}

// timeStoreGet opens a second handle on the server's trace store and
// times one cold population read from disk.
func timeStoreGet(t *topology) (float64, error) {
	st, err := tracestore.Open(t.dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := st.Get(t.meta.ID); err != nil {
		return 0, err
	}
	return elapsed(t0) * 1e3, nil
}
