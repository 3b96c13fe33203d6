// Behavioral tests for the serving daemon: request validation, the
// digest-keyed cache, backpressure, drain semantics, slice-job
// equivalence, and the concurrent bit-identity + constructor-count
// guard the pooled architecture exists for.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/workload"
)

// serveSpec keeps server-side sweeps fast: 16 slices × 6 gens.
var serveSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.25, Seed: 0xE59}

func specRequest(spec workload.SuiteSpec) JobRequest {
	return JobRequest{
		Kind:            "population",
		SlicesPerFamily: spec.SlicesPerFamily,
		InstsPerSlice:   spec.InstsPerSlice,
		WarmupFrac:      spec.WarmupFrac,
		Seed:            spec.Seed,
	}
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	panic("unreachable")
}

func metrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad json":          `{`,
		"unknown field":     `{"presett":"tiny"}`,
		"unknown kind":      `{"kind":"fleet"}`,
		"unknown preset":    `{"preset":"huge"}`,
		"slice without gen": `{"kind":"slice","slice":"web/0"}`,
		"unknown gen":       `{"kind":"slice","gen":"M9","slice":"web/0"}`,
		"gen on population": `{"gen":"M1"}`,
		"unknown family":    `{"kind":"slice","gen":"M1","slice":"nosuch/99"}`,
		"slice index junk":  `{"kind":"slice","gen":"M1","slice":"web/3abc"}`,
		"slice index path":  `{"kind":"slice","gen":"M1","slice":"web/1/2"}`,
		"negative index":    `{"kind":"slice","gen":"M1","slice":"web/-1"}`,
		"missing index":     `{"kind":"slice","gen":"M1","slice":"web"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestConcurrentSweepsBitIdenticalWithPooling is the tentpole's
// acceptance gate: 8 concurrent population sweeps (distinct seeds, so
// no cache assist) must each return exactly the bytes a direct
// experiments.Run of the same spec produces, while the shared simulator
// pool keeps total constructions bounded by the server's concurrency —
// not by the request count.
func TestConcurrentSweepsBitIdenticalWithPooling(t *testing.T) {
	const jobs = 8
	cfg := Config{Workers: 2, SweepParallelism: 2, CacheEntries: -1}
	s := New(cfg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Reference documents computed directly, outside the server.
	want := make([]string, jobs)
	for i := range want {
		spec := serveSpec
		spec.Seed = serveSpec.Seed + uint64(i)
		p, err := experiments.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p.SummaryDoc())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}

	run := func(wave int) {
		var wg sync.WaitGroup
		ids := make([]string, jobs)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				spec := serveSpec
				spec.Seed = serveSpec.Seed + uint64(i)
				for {
					resp, v := postJob(t, ts, specRequest(spec))
					if resp.StatusCode == http.StatusAccepted {
						ids[i] = v.ID
						return
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("wave %d job %d: status %d", wave, i, resp.StatusCode)
						return
					}
					time.Sleep(20 * time.Millisecond) // queue full: honor backpressure
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, id := range ids {
			v := waitJob(t, ts, id)
			if v.Status != StatusDone {
				t.Fatalf("wave %d job %d: status %s (%s)", wave, i, v.Status, v.Error)
			}
			// The response encoder re-indents the raw document; compare
			// the canonical (compact) bytes.
			var got bytes.Buffer
			if err := json.Compact(&got, v.Result); err != nil {
				t.Fatal(err)
			}
			if got.String() != want[i] {
				t.Fatalf("wave %d job %d: served result differs from direct Run:\n  want %s\n  got  %s",
					wave, i, want[i], got.String())
			}
		}
	}

	run(1)
	built := metrics(t, ts)["serve.pool.sims_built"]
	// The hard bound: constructions never exceed what the concurrency
	// level can hold simultaneously (2 sweeps × 2 workers × 6 gens),
	// regardless of how many requests were served. Without pooling,
	// 8 jobs would build a fresh set per request.
	bound := float64(cfg.Workers * cfg.SweepParallelism * 6)
	if built == 0 || built > bound {
		t.Fatalf("sims_built = %v, want in (0, %v]", built, bound)
	}
	run(2)
	if again := metrics(t, ts)["serve.pool.sims_built"]; again > bound {
		t.Fatalf("second wave overflowed the construction bound: %v > %v", again, bound)
	}
}

// TestQueueOverflowShedsLoad pins the backpressure contract: with one
// worker held busy and a one-deep queue, the third submission is shed
// with 429 and a Retry-After hint, and the shed job is never tracked.
func TestQueueOverflowShedsLoad(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 1}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, v1 := postJob(t, ts, specRequest(serveSpec))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	// Wait until the worker has dequeued job 1, freeing the queue slot.
	waitFor(t, func() bool { return s.running.Load() == 1 })

	spec2 := serveSpec
	spec2.Seed++
	resp2, _ := postJob(t, ts, specRequest(spec2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", resp2.StatusCode)
	}
	spec3 := serveSpec
	spec3.Seed += 2
	resp3, _ := postJob(t, ts, specRequest(spec3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if m := metrics(t, ts); m["serve.jobs_rejected"] != 1 {
		t.Fatalf("jobs_rejected = %v, want 1", m["serve.jobs_rejected"])
	}
	_ = v1
}

// TestDrainFinishesInFlight pins graceful shutdown: during a drain, new
// submissions get 503, but the running and queued jobs complete before
// Shutdown returns.
func TestDrainFinishesInFlight(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, specRequest(serveSpec))
	spec2 := serveSpec
	spec2.Seed++
	_, v2 := postJob(t, ts, specRequest(spec2))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	// Draining: new work is refused, health reports it.
	spec3 := serveSpec
	spec3.Seed += 2
	resp3, _ := postJob(t, ts, specRequest(spec3))
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp3.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if !health.Draining {
		t.Fatal("healthz should report draining")
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful drain errored: %v", err)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		if v := getJob(t, ts, id); v.Status != StatusDone {
			t.Fatalf("job %s after drain: %s (%s), want done", id, v.Status, v.Error)
		}
	}
}

// TestDrainDeadlineCancelsInFlight pins the other half of the drain
// contract: when the deadline passes first, Shutdown cancels the
// remaining jobs cooperatively and still waits for them to stop.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4},
		func(j *Job) { <-j.ctx.Done() }) // job blocks until canceled
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, specRequest(serveSpec))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if v := getJob(t, ts, v1.ID); v.Status != StatusCanceled {
		t.Fatalf("in-flight job after deadline: %s, want canceled", v.Status)
	}
}

// TestCancelEndpoint covers DELETE on both a running and a queued job.
func TestCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, running := postJob(t, ts, specRequest(serveSpec))
	spec2 := serveSpec
	spec2.Seed++
	_, queued := postJob(t, ts, specRequest(spec2))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	// Cancel both up front: the queued job's cancellation only
	// materializes once the (currently blocked) worker dequeues it, and
	// canceling the running job is what unblocks that worker.
	for _, id := range []string{queued.ID, running.ID} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v := waitJob(t, ts, id); v.Status != StatusCanceled {
			t.Fatalf("job %s: status %s, want canceled", id, v.Status)
		}
	}
}

// TestCacheHitSkipsQueue pins the result cache: an identical second
// submission answers 200 from the cache with byte-identical results and
// without consuming queue capacity.
func TestCacheHitSkipsQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, v1 := postJob(t, ts, specRequest(serveSpec))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	done := waitJob(t, ts, v1.ID)

	resp2, v2 := postJob(t, ts, specRequest(serveSpec))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache hit status = %d, want 200", resp2.StatusCode)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("cache hit view: %+v", v2)
	}
	if string(v2.Result) != string(done.Result) {
		t.Fatal("cached result differs from the original")
	}
	m := metrics(t, ts)
	if m["serve.cache_hits"] != 1 {
		t.Fatalf("cache_hits = %v, want 1", m["serve.cache_hits"])
	}
	if m["serve.jobs_submitted"] != 1 {
		t.Fatalf("jobs_submitted = %v, want 1 (hit must not enqueue)", m["serve.jobs_submitted"])
	}
}

// TestSliceJobMatchesDirectRun pins the single-slice path: the served
// result must be bit-identical to core.RunSlice on a fresh simulator.
func TestSliceJobMatchesDirectRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := specRequest(serveSpec)
	req.Kind = "slice"
	req.Gen, req.Slice = "M4", "web/0"
	_, v := postJob(t, ts, req)
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("slice job: %s (%s)", done.Status, done.Error)
	}
	var doc sliceDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != experiments.ResultsSchemaVersion || doc.Gen != "M4" {
		t.Fatalf("slice doc header: %+v", doc)
	}

	g, _ := core.GenByName("M4")
	sl, err := workload.ByName("web/0", serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSlice(g, sl)
	if !reflect.DeepEqual(doc.Result, want) {
		t.Fatalf("served slice result differs from direct run:\n  want %+v\n  got  %+v", want, doc.Result)
	}

	// A second identical submission hits the cache, and a distinct slice
	// reuses the pooled simulator instead of building another.
	built := s.pool.Built()
	req2 := req
	req2.Slice = "web/1"
	_, v2 := postJob(t, ts, req2)
	if w := waitJob(t, ts, v2.ID); w.Status != StatusDone {
		t.Fatalf("second slice job: %s (%s)", w.Status, w.Error)
	}
	if got := s.pool.Built(); got != built {
		t.Fatalf("second slice job constructed a simulator: built %d → %d", built, got)
	}
}

// TestBadSliceNameFailsJob covers both places an unresolvable slice name
// is caught: submit answers 400 with the error recorded, so no job is
// queued, and runSlice still refuses a job that reaches it with one.
func TestBadSliceNameFailsJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := specRequest(serveSpec)
	req.Kind = "slice"
	req.Gen, req.Slice = "M1", "nosuch/99"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("bad slice submit: status %d, error %q", resp.StatusCode, e.Error)
	}

	good := specRequest(serveSpec)
	spec, err := good.resolve()
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{req: req, spec: spec}
	if res, err := s.runSlice(job); err == nil {
		t.Fatalf("runSlice accepted an unresolvable slice: %s", res)
	}
}

// TestCheckpointedDrainResumes pins the drain story end to end: a sweep
// canceled by the drain deadline leaves its checkpoint behind, and
// resubmitting the same job on a fresh server resumes from it instead
// of resimulating everything.
func TestCheckpointedDrainResumes(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, CheckpointDir: dir, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())

	// Cancel the sweep once it has made some progress.
	_, v := postJob(t, ts, specRequest(serveSpec))
	waitFor(t, func() bool {
		j, ok := s.job(v.ID)
		if !ok {
			return false
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.done >= 3
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
	canceled := getJob(t, ts, v.ID)
	ts.Close()
	if canceled.Status != StatusCanceled {
		t.Fatalf("drained job: %s, want canceled", canceled.Status)
	}

	// Fresh server, same checkpoint dir: the resubmitted job resumes.
	s2 := New(Config{Workers: 1, CheckpointDir: dir, CacheEntries: -1})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, v2 := postJob(t, ts2, specRequest(serveSpec))
	done := waitJob(t, ts2, v2.ID)
	if done.Status != StatusDone {
		t.Fatalf("resumed job: %s (%s)", done.Status, done.Error)
	}
	var doc experiments.SummaryDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Resumed == 0 {
		t.Fatal("resubmitted sweep did not resume from the drain checkpoint")
	}

	// The document, minus the resume provenance, matches a direct run.
	p, err := experiments.Run(context.Background(), serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := p.SummaryDoc()
	got := doc
	got.Resumed = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed summary differs from direct run:\n  want %+v\n  got  %+v", want, got)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", json.RawMessage(`1`))
	c.put("b", json.RawMessage(`2`))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.put("c", json.RawMessage(`3`)) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	off := newResultCache(-1)
	off.put("a", json.RawMessage(`1`))
	if _, ok := off.get("a"); ok {
		t.Fatal("disabled cache stored a result")
	}
}

func TestJobDigestDistinguishesRequests(t *testing.T) {
	base := specRequest(serveSpec)
	spec, err := base.resolve()
	if err != nil {
		t.Fatal(err)
	}
	d1 := jobDigest(base, spec)

	seeded := base
	seeded.Seed = serveSpec.Seed + 1
	spec2, err := seeded.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(seeded, spec2) == d1 {
		t.Fatal("different seeds share a digest")
	}

	slice := base
	slice.Kind, slice.Gen, slice.Slice = "slice", "M1", "web/0"
	spec3, err := slice.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(slice, spec3) == d1 {
		t.Fatal("slice job shares the population digest")
	}

	// Preset spelling vs explicit fields: same resolved spec, same digest.
	preset := JobRequest{Kind: "population", Preset: "tiny"}
	pspec, err := preset.resolve()
	if err != nil {
		t.Fatal(err)
	}
	explicit := specRequest(workload.TinySpec)
	espec, err := explicit.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(preset, pspec) != jobDigest(explicit, espec) {
		t.Fatal("equivalent requests got different digests")
	}
}

// A checkpoint dir that doesn't exist yet is created by the server
// rather than failing every population job.
func TestCheckpointDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpts")
	s := New(Config{Workers: 1, CheckpointDir: dir, CacheEntries: -1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, specRequest(serveSpec))
	got := waitJob(t, ts, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, got.Digest+".ckpt")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// waitFor spins until cond holds, failing after a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// newHookedServer builds a server whose jobs block in hook — installed
// before the workers start, so no test races the executor.
func newHookedServer(cfg Config, hook func(*Job)) *Server {
	s := newServer(cfg)
	s.testHook = hook
	s.startWorkers()
	return s
}
