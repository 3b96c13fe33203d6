package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/serve"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// workloadDef is one traffic mix: how to stand up (and prime) its
// topology, and which request stream each client draws from.
type workloadDef struct {
	setup func(b *bench, rep int) (*topology, error)
	kind  func(client int) string
}

// Why each workload exists is in README.md; in short: serve_mixed runs
// every layer cold on every request, fabric_cold measures distributed
// simulation with every shard missing the shard cache, and m7_explore
// is the warm-forked predictor design-space traffic over a trace
// population.
var workloads = map[string]workloadDef{
	"serve_mixed": {setup: setupServeMixed, kind: func(c int) string {
		if c%2 == 1 {
			return kindSlice
		}
		return kindPopulation
	}},
	"fabric_cold": {setup: setupFabricCold, kind: func(int) string { return kindPopulation }},
	"m7_explore":  {setup: setupM7Explore, kind: func(int) string { return kindM7 }},
}

func workloadNames() []string { return sortedKeys(workloads) }

// server is one in-process exyserve listening on loopback.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the daemon, then the listener, and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// topology is one workload's running servers.
type topology struct {
	front *server   // the server clients talk to
	fleet []*server // fabric workers' own servers (fabric_cold)
	fws   []*fabric.Worker
	stop  context.CancelFunc
	wg    sync.WaitGroup
	shard *shardTimer // wraps the fleet's RunFunc in traced runs

	// m7_explore: the uploaded population and the store directory.
	dir     string
	meta    tracestore.Meta
	ingestS float64
}

// servers lists every server of the topology.
func (t *topology) servers() []*server { return append([]*server{t.front}, t.fleet...) }

// close stops fabric workers (handing their leases back), then every
// server, then removes the topology's files.
func (t *topology) close() error {
	var errs []error
	if t.stop != nil {
		t.stop()
		t.wg.Wait()
		for _, fw := range t.fws {
			errs = append(errs, fw.Release())
		}
	}
	for _, s := range t.fleet {
		errs = append(errs, s.close())
	}
	if t.front != nil {
		errs = append(errs, t.front.close())
	}
	if t.dir != "" {
		errs = append(errs, os.RemoveAll(t.dir))
	}
	return errors.Join(errs...)
}

// shardTimer measures the time fabric workers spend inside RunFunc.
type shardTimer struct {
	busy   atomic.Int64 // nanoseconds
	shards atomic.Int64
}

func (st *shardTimer) wrap(run fabric.RunFunc) fabric.RunFunc {
	return func(ctx context.Context, job fabric.ShardJob) (*experiments.ShardDoc, error) {
		t0 := time.Now()
		doc, err := run(ctx, job)
		st.busy.Add(int64(time.Since(t0)))
		st.shards.Add(1)
		return doc, err
	}
}

// frontConfig is the serving daemon every workload's clients talk to:
// the defaults, with one job worker per client and one simulation
// goroutine per job, so simulation never exceeds nproc goroutines.
func (b *bench) frontConfig() serve.Config {
	return serve.Config{Workers: b.cfg.clients, SweepParallelism: 1}
}

// prime runs one request from the set-up stream and checks it, so the
// pooled simulators and lazily built state exist before the clock starts.
func (b *bench) prime(t *topology, kind string) error {
	s := b.stream(t, kind, b.cfg.clients)
	if smp := b.client(t, -1).do(context.Background(), 0, s.next(), b.expect(t, kind)); smp.err != nil {
		return fmt.Errorf("priming %s request: %w", kind, smp.err)
	}
	return nil
}

func setupServeMixed(b *bench, _ int) (*topology, error) {
	front, err := startServer(b.frontConfig())
	if err != nil {
		return nil, err
	}
	t := &topology{front: front}
	for _, kind := range []string{kindPopulation, kindSlice} {
		if err := b.prime(t, kind); err != nil {
			return t, err
		}
	}
	return t, nil
}

// setupFabricCold builds the --worker topology in one process: a
// coordinator plus nproc worker servers that join it over loopback HTTP
// with fabric.NewClient and compute shards with their own ShardRunner.
func setupFabricCold(b *bench, _ int) (*topology, error) {
	front, err := startServer(b.frontConfig())
	if err != nil {
		return nil, err
	}
	t := &topology{front: front}
	ctx, stop := context.WithCancel(context.Background())
	t.stop = stop
	if b.cfg.traced {
		t.shard = &shardTimer{}
	}
	for i := 0; i < b.cfg.clients; i++ {
		ws, err := startServer(serve.Config{SweepParallelism: 1})
		if err != nil {
			return t, err
		}
		t.fleet = append(t.fleet, ws)
		run := ws.srv.ShardRunner()
		if t.shard != nil {
			run = t.shard.wrap(run)
		}
		fw := fabric.NewWorker(fabric.NewClient(front.url), fmt.Sprintf("exyperf-%d", i), run)
		t.fws = append(t.fws, fw)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			fw.Run(ctx) // returns ctx.Err() once close stops the fleet
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for front.srv.Fabric().LiveWorkers() < b.cfg.clients {
		if time.Now().After(deadline) {
			return t, fmt.Errorf("fabric workers did not join within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return t, b.prime(t, kindPopulation)
}

// Trace shape for m7_explore: one phase from each of eight fixed
// synthetic families, 720K instructions in all, which SimPoint cuts into
// about 8 weighted slices at its default interval. The trace is the same
// for every seed; the seed drives the M7 geometries. Seeded phase
// content swung the work per job by a third, and with a seeded phase
// order SimPoint cut 7 or 8 slices and each slice's warmup prefix
// followed the order, so run-to-run spread measured the draw rather than
// the host.
const (
	tracePhaseInsts = 90_000
	traceSourceSeed = 0xE59
)

var traceFamilies = []string{"specint", "specfp", "web", "mobile", "micro.tight", "micro.chase", "micro.stream", "micro.sms"}

var tracePhaseSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: tracePhaseInsts, Seed: traceSourceSeed}

// writeTrace writes the multi-phase ChampSim trace.
func writeTrace(w io.Writer) error {
	for _, fam := range traceFamilies {
		sl, err := workload.ByName(fam+"/0", tracePhaseSpec)
		if err != nil {
			return err
		}
		if err := trace.WriteChampSim(w, sl); err != nil {
			return err
		}
	}
	return nil
}

// setupM7Explore starts a server with a trace store, streams the
// trace to POST /v1/traces, and runs one priming M7 job so M1–M6 warm
// snapshots of every population slice exist before scoring.
func setupM7Explore(b *bench, rep int) (*topology, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("traces-%s-%d-%d", b.cfg.workload, os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := b.frontConfig()
	cfg.TraceDir = dir
	front, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	t := &topology{front: front, dir: dir}
	t0 := time.Now()
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		pw.CloseWithError(writeTrace(pw))
	}()
	resp, err := b.http.Post(front.url+"/v1/traces?name=exyperf", "application/octet-stream", pr)
	pr.Close() // unblocks the writer if the upload ended early
	<-wrote
	if err != nil {
		return t, fmt.Errorf("trace upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return t, fmt.Errorf("trace upload: %s: %s", resp.Status, body)
	}
	var doc struct {
		Meta tracestore.Meta `json:"meta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return t, fmt.Errorf("trace upload: %w", err)
	}
	t.meta, t.ingestS = doc.Meta, elapsed(t0)
	return t, b.prime(t, kindM7)
}

// population fetches the uploaded population back from the server's
// bundle endpoint, for the in-process reference runs.
func (t *topology) population(b *bench) (*tracestore.Population, error) {
	resp, err := b.http.Get(t.front.url + "/v1/traces/" + t.meta.ID + "/bundle")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bundle fetch: %s", resp.Status)
	}
	return tracestore.ReadBundle(resp.Body)
}
