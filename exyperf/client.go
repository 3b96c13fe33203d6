package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/serve"
	"exysim/internal/workload"
)

// bench is the state one run shares across set-ups, windows and checks.
type bench struct {
	cfg  config
	http *http.Client
	// st records spans around the benchmark's calls into each layer; nil
	// (tracing off) in every window that reports end-to-end metrics.
	st *obs.SpanTracer
	// tinySlices is the population size of a tiny synthetic sweep.
	tinySlices int
	// refs holds each client's host-speed reference kernel.
	refs []*hostRef
}

// expect is what a request's result must look like.
type expect struct {
	kind     string
	gens     []string // generation columns of a population result
	slices   int
	perSlice int    // SummaryDoc.InstsPerSlice
	insts    uint64 // measured-region instructions the request simulates
	trace    string
}

func genNames(gens []core.GenConfig) []string {
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name
	}
	return names
}

// expect derives the result shape of a request kind on topology t.
func (b *bench) expect(t *topology, kind string) expect {
	shipped := genNames(core.Generations())
	perSlice := workload.TinySpec.InstsPerSlice
	switch kind {
	case kindSlice:
		return expect{kind: kind, insts: sliceInsts}
	case kindM7:
		var insts uint64
		for _, sm := range t.meta.Slices {
			insts += uint64(sm.Insts - sm.Warmup)
		}
		gens := append(shipped, "M7")
		return expect{kind: kind, gens: gens, slices: len(t.meta.Slices), perSlice: perSlice,
			insts: insts * uint64(len(gens)), trace: t.meta.ID}
	default:
		return expect{kind: kind, gens: shipped, slices: b.tinySlices, perSlice: perSlice,
			insts: uint64(b.tinySlices*perSlice) * uint64(len(shipped))}
	}
}

// stream returns request stream id of topology t.
func (b *bench) stream(t *topology, kind string, id int) *stream {
	return newStream(b.cfg.seed, id, b.cfg.clients+1, kind, t.meta.ID)
}

// sample is one request's outcome.
type sample struct {
	kind    string
	req     serve.JobRequest
	stream  int     // the stream the request came from
	index   int     // the request's position in its stream
	latency float64 // POST to a decoded, verified result, seconds
	submit  float64 // POST to 202, seconds
	decode  float64 // result decode and verification, seconds
	insts   uint64
	result  []byte // compact result document
	err     error
}

// client is one closed-loop client.
type client struct {
	b    *bench
	base string
	lane int32
	id   int
}

func (b *bench) client(t *topology, id int) *client {
	c := &client{b: b, base: t.front.url, id: id}
	if b.st != nil {
		c.lane = b.st.Lane(fmt.Sprintf("client-%d", id))
	}
	return c
}

// do submits request k of the client's stream, follows its progress
// stream to the terminal frame, and decodes and verifies the result.
func (c *client) do(ctx context.Context, k int, req serve.JobRequest, exp expect) sample {
	st := c.b.st
	reqID := int64(c.id+1)<<32 | int64(k)
	s := sample{kind: exp.kind, req: req, stream: c.id, index: k}
	t0 := time.Now()
	view, err := c.submit(ctx, req)
	s.submit = elapsed(t0)
	st.Record("serve", "submit", t0, time.Now(), c.lane, reqID)
	if err == nil {
		tw := time.Now()
		view, err = c.wait(ctx, view.ID)
		st.Record("serve", "wait", tw, time.Now(), c.lane, reqID)
	}
	if err == nil {
		td := time.Now()
		s.insts, s.result, err = verify(req, exp, view)
		s.decode = elapsed(td)
		st.Record("client", "decode", td, time.Now(), c.lane, reqID)
	}
	s.latency, s.err = elapsed(t0), err
	st.Record("client", "request", t0, time.Now(), c.lane, reqID)
	return s
}

func (c *client) submit(ctx context.Context, req serve.JobRequest) (serve.JobView, error) {
	var v serve.JobView
	body, err := json.Marshal(req)
	if err != nil {
		return v, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.b.http.Do(hr)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return v, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("submit: %w", err)
	}
	return v, nil
}

// wait reads the job's JSONL progress stream up to its terminal frame.
func (c *client) wait(ctx context.Context, id string) (serve.JobView, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := c.b.http.Do(hr)
	if err != nil {
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var e serve.Event
			if jerr := json.Unmarshal(line, &e); jerr != nil {
				return serve.JobView{}, fmt.Errorf("stream %s: %w", id, jerr)
			}
			if e.Type == "result" && e.Job != nil {
				return *e.Job, nil
			}
		}
		if err != nil {
			return serve.JobView{}, fmt.Errorf("stream %s ended without a result: %w", id, err)
		}
	}
}

// verify checks a terminal job view against the request and returns the
// measured-region instructions it completed and its compact result.
func verify(req serve.JobRequest, exp expect, v serve.JobView) (uint64, []byte, error) {
	if v.Status != serve.StatusDone {
		return 0, nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	var raw bytes.Buffer
	if err := json.Compact(&raw, v.Result); err != nil {
		return 0, nil, fmt.Errorf("job %s: result: %w", v.ID, err)
	}
	if exp.kind == kindSlice {
		var d struct {
			SchemaVersion int    `json:"schema_version"`
			Gen           string `json:"gen"`
			Slice         string `json:"slice"`
			Result        struct{ Insts uint64 }
		}
		if err := json.Unmarshal(raw.Bytes(), &d); err != nil {
			return 0, nil, fmt.Errorf("job %s: slice result: %w", v.ID, err)
		}
		if d.SchemaVersion != experiments.ResultsSchemaVersion || d.Gen != req.Gen || d.Slice != req.Slice || d.Result.Insts != exp.insts {
			return 0, nil, fmt.Errorf("job %s: slice result is %s/%s v%d with %d insts, want %s/%s v%d with %d",
				v.ID, d.Gen, d.Slice, d.SchemaVersion, d.Result.Insts, req.Gen, req.Slice, experiments.ResultsSchemaVersion, exp.insts)
		}
		return exp.insts, raw.Bytes(), nil
	}
	var d experiments.SummaryDoc
	if err := json.Unmarshal(raw.Bytes(), &d); err != nil {
		return 0, nil, fmt.Errorf("job %s: summary: %w", v.ID, err)
	}
	switch {
	case d.SchemaVersion != experiments.ResultsSchemaVersion:
		return 0, nil, fmt.Errorf("job %s: summary schema_version %d", v.ID, d.SchemaVersion)
	case !slices.Equal(d.Generations, exp.gens):
		return 0, nil, fmt.Errorf("job %s: generations %v, want %v", v.ID, d.Generations, exp.gens)
	case d.Slices != exp.slices || d.InstsPerSlice != exp.perSlice:
		return 0, nil, fmt.Errorf("job %s: %d slices of %d insts, want %d of %d", v.ID, d.Slices, d.InstsPerSlice, exp.slices, exp.perSlice)
	case d.Failures != 0 || d.Retries != 0:
		return 0, nil, fmt.Errorf("job %s: %d quarantined slices, %d retries", v.ID, d.Failures, d.Retries)
	case d.Trace != exp.trace || (exp.trace != "") != (d.WeightedMeans != nil):
		return 0, nil, fmt.Errorf("job %s: trace %q (weighted means %v), want %q", v.ID, d.Trace, d.WeightedMeans != nil, exp.trace)
	}
	for _, m := range experiments.MetricNames() {
		if len(d.Means[m]) != len(exp.gens) {
			return 0, nil, fmt.Errorf("job %s: metric %s has %d generations, want %d", v.ID, m, len(d.Means[m]), len(exp.gens))
		}
	}
	return exp.insts, raw.Bytes(), nil
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	ok        []sample
	attempted int
	failed    int
	errs      []string
	seconds   float64 // until the last request finished
	rate      float64 // simulated instructions per host second, all clients
	rssMB     float64 // VmHWM when the minPop-th population request completed
	rssErr    error
	ref       refTally // host-speed reference chunks run between requests
}

// merge appends o to w: counts add up and the rate is time-weighted.
func (w window) merge(o window) window {
	if w.seconds+o.seconds > 0 {
		w.rate = (w.rate*w.seconds + o.rate*o.seconds) / (w.seconds + o.seconds)
	}
	w.ok = append(w.ok, o.ok...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.errs = append(w.errs, o.errs...)
	w.seconds += o.seconds
	w.ref.add(o.ref)
	return w
}

// run drives one closed-loop client per stream: each client sends its
// next request only after verifying the previous result, and sends none
// once d has passed, at least minPop population requests have completed
// (so their median has ten samples beyond it on any host) and its stream
// has drawn the refWindow requests the reference check samples from (a
// failed request ends both extensions). After each request the client
// runs one chunk of its host-speed reference kernel, which counts
// neither in the request's latency nor in the client's busy time. The
// window ends when the last request finishes. Streams carry on across
// windows, so a request's index and span id are its position in its
// stream.
func (b *bench) run(t *topology, streams []*stream, d time.Duration, minPop int64) window {
	ctx, cancel := context.WithTimeout(context.Background(), d+90*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(d)
	var popDone, failures atomic.Int64
	var w window
	per := make([][]sample, len(streams))
	busy := make([]float64, len(streams)) // each client's active seconds
	refs := make([]refTally, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := b.client(t, i)
			exp := b.expect(t, streams[i].kind)
			var refWall float64
			more := func() bool {
				if time.Now().Before(deadline) {
					return true
				}
				return failures.Load() == 0 && (popDone.Load() < minPop || streams[i].n < refWindow)
			}
			for more() && ctx.Err() == nil {
				k := streams[i].n
				s := c.do(ctx, k, streams[i].next(), exp)
				per[i] = append(per[i], s)
				busy[i] = elapsed(start) - refWall
				cpu, wall := b.refs[i].chunk()
				refs[i].add(refTally{refOps, cpu})
				refWall += wall
				switch {
				case s.err != nil:
					failures.Add(1)
				case s.kind != kindSlice && popDone.Add(1) == minPop:
					// Peak RSS is read after a fixed amount of work, so a
					// faster server that completes more requests in the
					// window is not charged for what its caches retain.
					w.rssMB, w.rssErr = peakRSSMB()
				}
			}
		}(i)
	}
	wg.Wait()
	w.seconds = elapsed(start)
	if ctx.Err() != nil {
		w.errs = append(w.errs, "window timed out")
		w.failed++
	}
	// Throughput sums each client's own rate over the time it was busy, so
	// a client idling after the deadline while another finishes its last
	// request does not count as lost capacity.
	for i, ss := range per {
		w.ref.add(refs[i])
		var insts uint64
		for _, s := range ss {
			w.attempted++
			if s.err != nil {
				w.failed++
				if len(w.errs) < 5 {
					w.errs = append(w.errs, s.err.Error())
				}
				continue
			}
			w.ok = append(w.ok, s)
			insts += s.insts
		}
		if busy[i] > 0 {
			w.rate += float64(insts) / busy[i] / 1e6
		}
	}
	return w
}

// latencies returns the latencies of the window's successful requests
// of one kind (all kinds when kind is empty).
func (w *window) latencies(kind string, pick func(sample) float64) []float64 {
	var xs []float64
	for _, s := range w.ok {
		if kind == "" || s.kind == kind || (kind == kindPopulation && s.kind == kindM7) {
			xs = append(xs, pick(s))
		}
	}
	return xs
}
