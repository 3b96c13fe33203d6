// Fabric smoke: an in-process coordinator with three HTTP workers runs
// a sharded sweep while one worker is killed mid-sweep. The dead
// worker's lease must expire and be stolen, and the merged result must
// stay byte-identical to a single-process run. `make fabric-smoke`
// runs this (race-enabled) as the tier-1 gate for the fabric.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exysim/internal/experiments"
	"exysim/internal/fabric"
)

// fabricWorkerRunner builds an isolated shard runner — its own
// simulator pool and warm cache, like a separate exyserve process.
func fabricWorkerRunner() fabric.RunFunc {
	pool := experiments.NewSimPool()
	warm := experiments.NewWarmCache()
	return func(ctx context.Context, job fabric.ShardJob) (*experiments.ShardDoc, error) {
		return experiments.RunShard(ctx, job.Spec, job.Unit,
			experiments.WithSimPool(pool),
			experiments.WithWarmSnapshots(warm),
			experiments.WithWorkers(2))
	}
}

func TestFabricShardedSweepBitIdenticalWithWorkerKill(t *testing.T) {
	spec := serveSpec.Normalize()
	ref, err := experiments.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	// Short lease TTL so the killed worker's shard is stolen within the
	// test's patience. Job result cache off: a resubmit at the end must
	// exercise the fabric's shard cache, not the job cache.
	s := New(Config{
		Workers:           2,
		SweepParallelism:  2,
		CacheEntries:      -1,
		FabricLeaseTTL:    200 * time.Millisecond,
		FabricShardSlices: 2,
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var wg sync.WaitGroup
	start := func(name string, wctx context.Context, run fabric.RunFunc) {
		w := fabric.NewWorker(fabric.NewClient(ts.URL), name, run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	start("w1", ctx, fabricWorkerRunner())
	start("w3", ctx, fabricWorkerRunner())

	// Worker 2 "crashes" on its first grant: it cancels its own context
	// and reports nothing, so its lease can only be recovered by
	// expiry + steal.
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	var killed atomic.Bool
	start("w2", killCtx, func(c context.Context, _ fabric.ShardJob) (*experiments.ShardDoc, error) {
		killed.Store(true)
		kill()
		<-c.Done()
		return nil, c.Err()
	})

	deadline := time.Now().Add(10 * time.Second)
	for s.Fabric().LiveWorkers() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("workers never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Submit the sweep over HTTP; it must route through the fabric.
	_, v := postJob(t, ts, specRequest(serveSpec))
	var final JobView
	for {
		final = getJob(t, ts, v.ID)
		if final.Status.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.Status != StatusDone {
		t.Fatalf("sweep ended %s: %s", final.Status, final.Error)
	}
	if !killed.Load() {
		t.Fatal("the kill worker never received a grant — the crash path was not exercised")
	}

	// Bit-identity: the response encoder re-indents the document, so
	// compare canonical re-marshals (float round-trips are exact).
	var gotDoc experiments.SummaryDoc
	if err := json.Unmarshal(final.Result, &gotDoc); err != nil {
		t.Fatalf("bad result document: %v", err)
	}
	got, _ := json.Marshal(gotDoc)
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}

	st := s.Fabric().Stats()
	if st.WorkersJoined < 3 {
		t.Fatalf("workers joined = %d, want >= 3", st.WorkersJoined)
	}
	if st.LeasesExpired == 0 || st.Steals == 0 {
		t.Fatalf("worker kill not recovered by steal: expired=%d steals=%d", st.LeasesExpired, st.Steals)
	}
	if st.CacheEntries == 0 {
		t.Fatal("no shards cached")
	}

	// Resubmit: with the job cache off, the second sweep must be served
	// from the fabric's digest-keyed shard cache, bit-identically.
	_, v2 := postJob(t, ts, specRequest(serveSpec))
	for {
		final = getJob(t, ts, v2.ID)
		if final.Status.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cached sweep never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var gotDoc2 experiments.SummaryDoc
	if err := json.Unmarshal(final.Result, &gotDoc2); err != nil {
		t.Fatalf("bad cached result: %v", err)
	}
	got2, _ := json.Marshal(gotDoc2)
	if !bytes.Equal(got2, want) {
		t.Fatal("cache-served sweep differs from single-process run")
	}
	st2 := s.Fabric().Stats()
	if st2.CacheHits == 0 {
		t.Fatal("resubmit produced no shard-cache hits")
	}

	// The acceptance counters are on /metrics.
	snap := s.Metrics()
	for _, name := range []string{
		"serve.fabric.shard_cache_hits",
		"serve.fabric.shard_cache_evictions",
		"serve.fabric.steals",
	} {
		if _, ok := snap.Values[name]; !ok {
			t.Fatalf("metric %s not exported", name)
		}
	}
	if snap.Get("serve.fabric.steals") == 0 {
		t.Fatal("/metrics reports zero steals after a worker kill")
	}

	// The fleet wall-time view (merged from worker heartbeats) saw work.
	if st2.WorkerWall.N() == 0 {
		t.Fatal("worker wall summaries never merged")
	}

	cancelAll()
	wg.Wait()
}

// TestFabricCoordinatorGeneratesNoSuite: with workers serving a
// synthetic sweep, the coordinator plans and merges from slice headers,
// so its warm cache never generates (or looks up) the suite, and the
// merged result still equals a single-process run.
func TestFabricCoordinatorGeneratesNoSuite(t *testing.T) {
	spec := serveSpec
	spec.Seed = 0xC00D
	ref, err := experiments.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.SummaryDoc())

	s := New(Config{Workers: 1, CacheEntries: -1, FabricShardSlices: 3})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for _, name := range []string{"w1", "w2"} {
		w := fabric.NewWorker(fabric.NewClient(ts.URL), name, fabricWorkerRunner())
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Fabric().LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, v := postJob(t, ts, specRequest(spec))
	final := getJob(t, ts, v.ID)
	for !final.Status.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", final)
		}
		time.Sleep(10 * time.Millisecond)
		final = getJob(t, ts, v.ID)
	}
	if final.Status != StatusDone {
		t.Fatalf("sweep ended %s: %s", final.Status, final.Error)
	}
	var doc experiments.SummaryDoc
	if err := json.Unmarshal(final.Result, &doc); err != nil {
		t.Fatalf("bad result document: %v", err)
	}
	if got, _ := json.Marshal(doc); !bytes.Equal(got, want) {
		t.Fatalf("fabric sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}
	if st := s.Fabric().Stats(); st.LocalRuns != 0 {
		t.Fatalf("coordinator ran %d shards itself; the workers were meant to serve them all", st.LocalRuns)
	}
	if ws := s.warm.Stats(); ws.SuiteMisses != 0 || ws.SuiteHits != 0 {
		t.Fatalf("coordinator warm cache touched the suite: %d misses, %d hits", ws.SuiteMisses, ws.SuiteHits)
	}
}

// TestFabricGzipResponses: API responses honor Accept-Encoding (the
// Go client decompresses transparently; we check the header at the
// middleware seam), and bodyless statuses stay uncompressed.
func TestFabricGzipResponses(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("Accept-Encoding", "gzip")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if ce := w.Header().Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("healthz Content-Encoding = %q, want gzip", ce)
	}
	if !strings.Contains(w.Header().Get("Vary"), "Accept-Encoding") {
		t.Fatal("compressed response missing Vary: Accept-Encoding")
	}

	// Same request without the header: identity body.
	r2 := httptest.NewRequest("GET", "/healthz", nil)
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, r2)
	if ce := w2.Header().Get("Content-Encoding"); ce != "" {
		t.Fatalf("identity response has Content-Encoding %q", ce)
	}
	if !json.Valid(w2.Body.Bytes()) {
		t.Fatal("identity response is not plain JSON")
	}
}
