// Job lifecycle for the sweep-serving daemon: wire request forms, the
// tracked Job with its progress/event fan-out, and the JSON views the
// HTTP layer returns.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/workload"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// terminal reports whether a status is final.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobRequestSchemaVersion is the newest request schema this server
// accepts: version 2 adds the nested spec/m7 forms below. Versions 0
// (unset) and 1 are the original flat form; both remain accepted
// forever — the flat fields are version 2's legacy spelling.
const JobRequestSchemaVersion = 2

// SpecRequest is the version-2 nested spelling of the workload-spec
// fields: a preset plus individual overrides. It resolves identically
// to the flat legacy fields, so the two spellings share one result-
// cache digest.
type SpecRequest struct {
	Preset          string  `json:"preset,omitempty"`
	SlicesPerFamily int     `json:"slices_per_family,omitempty"`
	InstsPerSlice   int     `json:"insts_per_slice,omitempty"`
	WarmupFrac      float64 `json:"warmup_frac,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
}

// M7Request asks a population job to sweep a hypothetical generation
// beside the shipped M1..M6: Base (default "M6") is copied and its
// direction/indirect predictor replaced by Predictor, under Name
// (default "M7"). The result SummaryDoc then carries one extra
// generation column, computed bit-identically across the local,
// warm-pooled, and fabric-worker paths.
type M7Request struct {
	Base      string               `json:"base,omitempty"`
	Name      string               `json:"name,omitempty"`
	Predictor branch.PredictorSpec `json:"predictor"`
}

// JobRequest is the wire form of a job submission. Kind selects the
// work: "population" (the default) sweeps every generation over the
// spec's synthetic population and returns a versioned SummaryDoc;
// "slice" runs one (generation, slice) pair guarded and returns the
// detailed Result. The spec is spelled either flat (legacy, schema
// versions 0/1) or nested under "spec" (version 2); "m7" adds a
// hypothetical predictor-lab generation to a population sweep.
type JobRequest struct {
	// SchemaVersion selects the request schema. 0 means "infer": 2 when
	// a nested form (spec, m7) is present, else 1. Explicit versions
	// above JobRequestSchemaVersion are rejected.
	SchemaVersion int `json:"schema_version,omitempty"`

	Kind string `json:"kind,omitempty"`

	// Preset names a base spec (tiny|quick|standard, default tiny); the
	// explicit fields below override it individually. This is the flat
	// legacy spelling of Spec — set one or the other, not both.
	Preset          string  `json:"preset,omitempty"`
	SlicesPerFamily int     `json:"slices_per_family,omitempty"`
	InstsPerSlice   int     `json:"insts_per_slice,omitempty"`
	WarmupFrac      float64 `json:"warmup_frac,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`

	// Spec is the version-2 nested spelling of the flat fields above.
	Spec *SpecRequest `json:"spec,omitempty"`

	// M7 extends a population sweep with a hypothetical generation
	// (version 2).
	M7 *M7Request `json:"m7,omitempty"`

	// Gen and Slice select the pair of a slice job (e.g. "M4", "web/3").
	Gen   string `json:"gen,omitempty"`
	Slice string `json:"slice,omitempty"`

	// Trace, for population jobs, sweeps an ingested trace population
	// (the id returned by POST /v1/traces) instead of the synthetic
	// suite; per-generation estimates are then SimPoint-weighted.
	Trace string `json:"trace,omitempty"`
}

// resolve validates the request and materializes the effective
// workload spec. Nested version-2 forms are folded into the flat
// fields, so everything downstream (digests, views, logs) sees one
// canonical shape.
func (r *JobRequest) resolve() (workload.SuiteSpec, error) {
	switch r.SchemaVersion {
	case 0:
		if r.Spec != nil || r.M7 != nil {
			r.SchemaVersion = JobRequestSchemaVersion
		} else {
			r.SchemaVersion = 1
		}
	case 1:
		if r.Spec != nil || r.M7 != nil {
			return workload.SuiteSpec{}, fmt.Errorf("spec/m7 need schema_version %d", JobRequestSchemaVersion)
		}
	case JobRequestSchemaVersion:
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unsupported schema_version %d (this server speaks up to %d)", r.SchemaVersion, JobRequestSchemaVersion)
	}
	if r.Spec != nil {
		if r.Preset != "" || r.SlicesPerFamily != 0 || r.InstsPerSlice != 0 || r.WarmupFrac != 0 || r.Seed != 0 {
			return workload.SuiteSpec{}, fmt.Errorf("nested spec and flat spec fields are mutually exclusive")
		}
		r.Preset = r.Spec.Preset
		r.SlicesPerFamily = r.Spec.SlicesPerFamily
		r.InstsPerSlice = r.Spec.InstsPerSlice
		r.WarmupFrac = r.Spec.WarmupFrac
		r.Seed = r.Spec.Seed
		r.Spec = nil
	}
	switch r.Kind {
	case "":
		r.Kind = "population"
	case "population", "slice":
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unknown kind %q (population|slice)", r.Kind)
	}
	if r.M7 != nil && r.Kind != "population" {
		return workload.SuiteSpec{}, fmt.Errorf("m7 is only valid for kind \"population\"")
	}
	var spec workload.SuiteSpec
	switch r.Preset {
	case "", "tiny":
		spec = workload.TinySpec
	case "quick":
		spec = workload.QuickSpec
	case "standard":
		spec = workload.StandardSpec
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unknown preset %q (tiny|quick|standard)", r.Preset)
	}
	if r.SlicesPerFamily != 0 {
		spec.SlicesPerFamily = r.SlicesPerFamily
	}
	if r.InstsPerSlice != 0 {
		spec.InstsPerSlice = r.InstsPerSlice
	}
	if r.WarmupFrac != 0 {
		spec.WarmupFrac = r.WarmupFrac
	}
	if r.Seed != 0 {
		spec.Seed = r.Seed
	}
	spec = spec.Normalize()
	if r.Kind == "slice" {
		if r.Gen == "" || r.Slice == "" {
			return workload.SuiteSpec{}, fmt.Errorf("slice jobs need both gen and slice")
		}
		if _, ok := core.GenByName(r.Gen); !ok {
			return workload.SuiteSpec{}, fmt.Errorf("unknown generation %q", r.Gen)
		}
		if _, err := workload.Lookup(r.Slice, spec); err != nil {
			return workload.SuiteSpec{}, err
		}
	} else if r.Gen != "" || r.Slice != "" {
		return workload.SuiteSpec{}, fmt.Errorf("gen/slice are only valid for kind \"slice\"")
	}
	if r.Trace != "" && r.Kind != "population" {
		return workload.SuiteSpec{}, fmt.Errorf("trace is only valid for kind \"population\"")
	}
	return spec, nil
}

// hypoGens resolves the request's generation set: nil for the default
// M1..M6, or the hypothetical-extended set when M7 is present. Errors
// (unknown baseline, invalid geometry, name collision) surface at
// submit time as a 400, before any simulation starts.
func (r *JobRequest) hypoGens() ([]core.GenConfig, error) {
	if r.M7 == nil {
		return nil, nil
	}
	return experiments.HypotheticalGens(r.M7.Base, r.M7.Name, r.M7.Predictor)
}

// jobDigest fingerprints the resolved request: two submissions with the
// same digest are guaranteed to compute the same result, which is what
// keys the result cache and the checkpoint files. An M7 request folds
// its hypothetical generation in, so predictor-lab sweeps can never
// alias a default sweep (or a differently-specced M7) in the cache.
func jobDigest(req JobRequest, spec workload.SuiteSpec) string {
	var m7 M7Request
	if req.M7 != nil {
		m7 = *req.M7
	}
	return obs.ConfigDigest(struct {
		Kind       string
		Spec       workload.SuiteSpec
		Gen, Slice string
		Trace      string
		HasM7      bool
		M7         M7Request
	}{req.Kind, spec, req.Gen, req.Slice, req.Trace, req.M7 != nil, m7})
}

// Event is one JSONL/SSE stream frame: progress ticks while the job
// runs, then exactly one terminal "result" frame carrying the full job
// view.
type Event struct {
	Type  string   `json:"type"` // "progress" | "result"
	Done  int      `json:"done,omitempty"`
	Total int      `json:"total,omitempty"`
	Job   *JobView `json:"job,omitempty"`
}

// JobView is the JSON form of a job's current state.
type JobView struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Status JobStatus       `json:"status"`
	Digest string          `json:"digest"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// sliceDoc is the versioned result document of a slice job.
type sliceDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Gen           string      `json:"gen"`
	Slice         string      `json:"slice"`
	Result        core.Result `json:"result"`
}

func newSliceDoc(gen, slice string, r core.Result) sliceDoc {
	return sliceDoc{SchemaVersion: experiments.ResultsSchemaVersion, Gen: gen, Slice: slice, Result: r}
}

// Job is one tracked unit of work. Workers mutate it through
// setProgress/finish; the HTTP layer reads it through view and streams
// it through subscribe.
type Job struct {
	id     string
	req    JobRequest
	spec   workload.SuiteSpec
	digest string
	// gens is the resolved generation set for population jobs: nil for
	// the default M1..M6, the hypothetical-extended set for M7 requests.
	gens []core.GenConfig

	// ctx governs the job's execution; cancel aborts it (DELETE, or the
	// drain deadline). It is derived before enqueueing so canceling a
	// still-queued job works too.
	ctx    context.Context
	cancel context.CancelFunc

	// enqueued stamps admission to the queue; queue-wait latency is
	// measured from here to the moment a worker picks the job up.
	enqueued time.Time

	mu          sync.Mutex
	status      JobStatus
	done, total int
	result      json.RawMessage
	errMsg      string
	subs        map[int]chan Event
	nextSub     int
}

func newJob(base context.Context, id string, req JobRequest, spec workload.SuiteSpec, gens []core.GenConfig) *Job {
	ctx, cancel := context.WithCancel(base)
	return &Job{
		id: id, req: req, spec: spec, digest: jobDigest(req, spec), gens: gens,
		ctx: ctx, cancel: cancel,
		enqueued: time.Now(),
		status:   StatusQueued,
		subs:     map[int]chan Event{},
	}
}

// view snapshots the job as its JSON form.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	return JobView{
		ID: j.id, Kind: j.req.Kind, Status: j.status, Digest: j.digest,
		Done: j.done, Total: j.total,
		Error: j.errMsg, Result: j.result,
	}
}

// start transitions queued → running; it reports false if the job was
// already canceled (its ctx died while queued).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// setProgress records a progress tick and broadcasts it to streamers.
// Sends are non-blocking: a slow subscriber misses ticks rather than
// stalling the sweep; the terminal frame is delivered via channel close
// plus job state, so nothing essential is ever dropped.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.done, j.total = done, total
	e := Event{Type: "progress", Done: done, Total: total}
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// finish records the terminal state and closes every subscriber
// channel; streamers then emit the terminal frame from the job state.
func (j *Job) finish(status JobStatus, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.status, j.result, j.errMsg = status, result, errMsg
	if status == StatusDone && j.total > 0 {
		j.done = j.total
	}
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.cancel() // release the context's resources
}

// subscribe registers a progress listener. The returned channel closes
// when the job reaches a terminal state (immediately if it already
// has); the caller then reads the terminal view. The cancel func must
// be called to unsubscribe.
func (j *Job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 16)
	if j.status.terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}
