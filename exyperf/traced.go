package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"exysim/internal/branch"
	"exysim/internal/cache"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/isa"
	"exysim/internal/mem"
	"exysim/internal/obs"
	"exysim/internal/robust"
	"exysim/internal/snapshot"
	"exysim/internal/tlb"
	"exysim/internal/trace"
	"exysim/internal/uoc"
	"exysim/internal/workload"
)

// cpuPackages are the packages host CPU time is attributed to, as
// cpu_share.<name>; everything else is cpu_share.other.
var cpuPackages = []struct{ name, path string }{
	{"branch", "exysim/internal/branch"},
	{"cache", "exysim/internal/cache"},
	{"pipeline", "exysim/internal/pipeline"},
	{"tlb", "exysim/internal/tlb"},
	{"satable", "exysim/internal/satable"},
	{"mem", "exysim/internal/mem"},
	{"prefetch", "exysim/internal/prefetch"},
	{"uoc", "exysim/internal/uoc"},
	{"snapshot", "exysim/internal/snapshot"},
	{"workload", "exysim/internal/workload"},
	{"serve", "exysim/internal/serve"},
	{"fabric", "exysim/internal/fabric"},
	{"encoding_json", "encoding/json"},
	{"net_http", "net/http"},
	{"runtime", "runtime"},
}

// perLayer lists the metrics a traced run reports, with units. Every
// workload reports every one; BENCHMARK.json carries the same names.
// Metrics only some workloads have go to the report's extra block.
var perLayer = func() map[string]string {
	m := map[string]string{
		"robust.step_ns_per_inst.M1":    "ns",
		"robust.step_ns_per_inst.M6":    "ns",
		"branch.ns_per_inst.M6":         "ns",
		"mem.ns_per_access.M6":          "ns",
		"cache.ns_per_lookup.L1D":       "ns",
		"tlb.ns_per_lookup.L1DTLB":      "ns",
		"uoc.ns_per_block.M6":           "ns",
		"workload.slice_ms":             "ms",
		"trace.predecode_ms":            "ms",
		"core.new_sim_ms":               "ms",
		"core.reset_us":                 "us",
		"core.capture_ms":               "ms",
		"core.restore_ms":               "ms",
		"snapshot.image_kb":             "KiB",
		"experiments.warm_fork_ratio":   "frac",
		"experiments.summary_encode_ms": "ms",
		"fabric.shard_ms":               "ms",
		"fabric.merge_ms":               "ms",
		"serve.submit_ms":               "ms",
		"serve.queue_wait_ms":           "ms",
		"serve.result_decode_ms":        "ms",
		"obs.config_digest_us":          "us",
		"sim.ipc.M1":                    "inst/cycle",
		"sim.ipc.M6":                    "inst/cycle",
		"sim.ipc_ratio_m6_m1":           "ratio",
		"sim.mpki.M6":                   "mpki",
		"sim.load_lat.M6":               "cycles",
		"sim.uoc_supplied_frac.M6":      "frac",
		"tracing.overhead_minsts_per_s": "Minst/s",
		"cpu_share.other":               "frac",
	}
	for _, p := range cpuPackages {
		m["cpu_share."+p.name] = "frac"
	}
	return m
}()

// tracedWindows splits the window into untraced and traced quarters,
// alternating, so drift in host speed falls on both sides of the tracing
// overhead. Spans and a CPU profile cover the traced quarters; spans stay
// on afterwards for the probes.
func (b *bench) tracedWindows(t *topology, streams []*stream, d time.Duration) (plain, traced window, profiles []string, err error) {
	st := obs.NewSpanTracer(1 << 16)
	for q := 0; q < 4; q++ {
		if q%2 == 0 {
			b.st = nil
			plain = plain.merge(b.run(t, streams, d/4, 0))
			continue
		}
		path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d-q%d.pprof", b.cfg.workload, b.cfg.seed, q))
		f, err := os.Create(path)
		if err != nil {
			return plain, traced, profiles, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return plain, traced, profiles, err
		}
		b.st = st
		traced = traced.merge(b.run(t, streams, d/4, 0))
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return plain, traced, profiles, err
		}
		profiles = append(profiles, path)
	}
	return plain, traced, profiles, nil
}

// layerMetrics fills a traced run's per-layer metrics: live figures from
// the traced window (spans, counters, CPU profile), then probes that
// re-execute a seeded sample of the workload's requests through each
// layer's public functions.
func (b *bench) layerMetrics(rep *report, m map[string]metric, top *topology, profiles []string,
	plain, win window, before, after counters, refs []*experiments.PopulationRun, getMs float64) error {
	set := func(name string, v float64) { m[name] = metric{v, perLayer[name]} }
	ms := func(pick func(sample) float64) float64 { return median(win.latencies("", pick)) * 1e3 }
	set("serve.submit_ms", ms(func(s sample) float64 { return s.submit }))
	set("serve.result_decode_ms", ms(func(s sample) float64 { return s.decode }))
	q := after.queueWait
	if n := q.Count - before.queueWait.Count; n > 0 {
		set("serve.queue_wait_ms", float64(q.Sum-before.queueWait.Sum)/float64(n)/1e3)
	}
	set("experiments.warm_fork_ratio", forkRatio(before, after))
	set("tracing.overhead_minsts_per_s", win.rate-plain.rate)
	rep.Extra["untraced_sim_minsts_per_s"] = metric{plain.rate, "Minst/s"}
	rep.Extra["traced_sim_minsts_per_s"] = metric{win.rate, "Minst/s"}

	shares, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	for name, v := range shares {
		set("cpu_share."+name, v)
	}

	switch b.cfg.workload {
	case "fabric_cold":
		hits, misses := after.shardHits-before.shardHits, after.shardMisses-before.shardMisses
		if hits+misses > 0 {
			rep.Extra["fabric.shard_cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "frac"}
		}
		rep.Extra["fabric.leases_expired"] = metric{float64(after.leasesExpired - before.leasesExpired), "count"}
		busy, shards := after.shardBusyNanos-before.shardBusyNanos, after.shards-before.shards
		if shards > 0 {
			rep.Extra["fabric.live_shard_ms"] = metric{float64(busy) / float64(shards) / 1e6, "ms"}
		}
		wall := (plain.seconds + win.seconds) * float64(len(top.fws)) * 1e9
		rep.Extra["fabric.worker_idle_frac"] = metric{1 - float64(busy)/wall, "frac"}
	case "m7_explore":
		rep.Extra["tracestore.ingest_s"] = metric{top.ingestS, "s"}
		rep.Extra["tracestore.get_ms"] = metric{getMs, "ms"}
	}

	if len(refs) == 0 {
		return fmt.Errorf("no population request was sampled for the layer probes")
	}
	// The servers are gone; collect their caches now so background GC
	// does not share the CPU with the probes' timed loops.
	runtime.GC()
	if err := b.probe(rep, set, refs[0]); err != nil {
		return err
	}

	rep.SpanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := b.st.WriteJSONFile(rep.SpanFile); err != nil {
		return err
	}
	if rep.SelfTimeMs, err = selfTimes(rep.SpanFile); err != nil {
		return err
	}
	return checkNames(m, perLayer)
}

// timed runs f and records a probe span around it, returning seconds.
func (b *bench) timed(cat, name string, f func()) float64 {
	t0 := time.Now()
	f()
	end := time.Now()
	b.st.Record(cat, name, t0, end, b.st.Lane("probe"), 0)
	return end.Sub(t0).Seconds()
}

// probeSlices picks the three slices the probes replay, deterministically
// from the seed, and times regenerating two slices through the workload
// package: serve_mixed's first two slice-job slices, two source phases of
// the m7_explore trace, or two slices of the sampled population.
func (b *bench) probeSlices(p *experiments.PopulationRun) ([]*trace.Slice, float64, error) {
	r := rand.New(rand.NewPCG(b.cfg.seed, 0x960BE))
	type named struct {
		name string
		spec workload.SuiteSpec
	}
	var regen []named
	switch b.cfg.workload {
	case "serve_mixed":
		s := newStream(b.cfg.seed, 1, b.cfg.clients+1, kindSlice, "")
		for i := 0; i < 2; i++ {
			req := s.next()
			regen = append(regen, named{req.Slice, requestSpec(req)})
		}
	case "m7_explore":
		for _, i := range r.Perm(len(traceFamilies))[:2] {
			regen = append(regen, named{traceFamilies[i] + "/0", tracePhaseSpec})
		}
	default:
		for _, i := range r.Perm(len(p.Slices))[:2] {
			regen = append(regen, named{p.Slices[i].Name, p.Spec})
		}
	}
	var sls []*trace.Slice
	var genS float64
	for _, n := range regen {
		var sl *trace.Slice
		var err error
		genS += b.timed("workload", "slice", func() { sl, err = workload.ByName(n.name, n.spec) })
		if err != nil {
			return nil, 0, err
		}
		if b.cfg.workload != "m7_explore" { // trace phases are not replayed
			sls = append(sls, sl)
		}
	}
	for _, i := range r.Perm(len(p.Slices)) {
		// A slice without a warmup prefix (a SimPoint pick at the trace's
		// start) has no warm state to capture.
		if len(sls) < 3 && p.Slices[i].Warmup > 0 {
			sls = append(sls, p.Slices[i])
		}
	}
	return sls, genS / float64(len(regen)) * 1e3, nil
}

// probe re-executes the sampled population request p through each
// layer's public functions, recording a span around every call.
func (b *bench) probe(rep *report, set func(string, float64), p *experiments.PopulationRun) error {
	if b.cfg.workload != "m7_explore" {
		d := b.timed("workload", "suite", func() { workload.Suite(p.Spec) })
		rep.Extra["workload.suite_ms"] = metric{d * 1e3, "ms"}
	}
	sls, genMs, err := b.probeSlices(p)
	if err != nil {
		return err
	}
	set("workload.slice_ms", genMs)

	gens := map[string]core.GenConfig{}
	for _, g := range p.Gens {
		gens[g.Name] = g
	}
	stepGens := []string{"M1", "M6"}
	if _, ok := gens["M7"]; ok {
		stepGens = append(stepGens, "M7")
	}
	var predecode, newSim, reset, capture, restore, imgKB float64
	stepS, stepInsts := map[string]float64{}, map[string]uint64{}
	var rp replay
	for _, sl := range sls {
		var pd *trace.PreDecoded
		predecode += b.timed("trace", "predecode", func() { pd = sl.PreDecode() })
		for _, name := range stepGens {
			sim, st, err := b.probeStep(rep, gens[name], pd)
			if err != nil {
				return err
			}
			stepS[name] += st.step
			stepInsts[name] += st.insts
			if name == "M6" {
				newSim += st.newSim
				capture += st.capture
				restore += st.restore
				imgKB += st.imgKB
				reset += b.timed("core", "reset", sim.Reset)
			}
		}
		rp.run(b, gens["M6"], sl)
		if g, ok := gens["M7"]; ok {
			rp.runBranch(b, "M7", g, sl)
		}
	}
	k := float64(len(sls))
	set("trace.predecode_ms", predecode/k*1e3)
	set("core.new_sim_ms", newSim/k*1e3)
	set("core.capture_ms", capture/k*1e3)
	set("core.restore_ms", restore/k*1e3)
	set("core.reset_us", reset/k*1e6)
	set("snapshot.image_kb", imgKB/k)
	for _, name := range stepGens {
		v := stepS[name] * 1e9 / float64(stepInsts[name])
		if name == "M7" {
			rep.Extra["robust.step_ns_per_inst.M7"] = metric{v, "ns"}
		} else {
			set("robust.step_ns_per_inst."+name, v)
		}
	}
	set("branch.ns_per_inst.M6", rp.per("branch.M6"))
	if _, ok := gens["M7"]; ok {
		rep.Extra["branch.ns_per_inst.M7"] = metric{rp.per("branch.M7"), "ns"}
	}
	set("mem.ns_per_access.M6", rp.per("mem"))
	set("cache.ns_per_lookup.L1D", rp.per("cache"))
	set("tlb.ns_per_lookup.L1DTLB", rp.per("tlb"))
	set("uoc.ns_per_block.M6", rp.per("uoc"))

	// Configuration digests: what every pool, warm-cache and shard key
	// computes per generation.
	var dig float64
	for _, g := range p.Gens {
		dig += b.timed("obs", "config_digest", func() { obs.ConfigDigest(g) })
	}
	set("obs.config_digest_us", dig/float64(len(p.Gens))*1e6)
	const encReps = 20
	var enc float64
	for i := 0; i < encReps; i++ {
		enc += b.timed("experiments", "summary_encode", func() { json.Marshal(p.SummaryDoc()) })
	}
	set("experiments.summary_encode_ms", enc/encReps*1e3)

	if err := b.probeShards(rep, set, p); err != nil {
		return err
	}
	simInvariants(set, p)
	return nil
}

// stepTimes are one probeStep's measurements, in seconds (image in KiB).
type stepTimes struct {
	newSim, capture, restore, step, imgKB float64
	insts                                 uint64
}

// probeStep runs one slice on a new simulator the way a warm fork does:
// a cold replay capturing state at the warmup boundary, then a restore
// and a timed replay of the measured region, which must reproduce the
// cold result bit for bit.
func (b *bench) probeStep(rep *report, g core.GenConfig, pd *trace.PreDecoded) (*core.Simulator, stepTimes, error) {
	var t stepTimes
	var sim *core.Simulator
	t.newSim = b.timed("core", "new_sim", func() { sim = core.NewSimulator(g) })
	var img *snapshot.Image
	var cerr error
	cold, fail := robust.RunGuardedDecoded(sim, pd, 0, robust.Options{CheckInvariants: true, AfterWarmup: func() {
		t.capture = b.timed("core", "capture", func() { img, cerr = sim.CaptureState() })
	}})
	if fail == nil && cerr == nil && img != nil {
		t.restore = b.timed("core", "restore", func() { cerr = sim.RestoreState(img) })
	}
	if fail != nil || cerr != nil || img == nil {
		return nil, t, fmt.Errorf("probe %s/%s: capture or restore failed: %v %v", g.Name, pd.Slice.Name, fail, cerr)
	}
	var warm core.Result
	t.step = b.timed("robust", "step."+g.Name, func() {
		warm, fail = robust.RunGuardedDecoded(sim, pd, pd.Slice.Warmup, robust.Options{CheckInvariants: true})
	})
	if fail != nil {
		return nil, t, fmt.Errorf("probe %s/%s: %s", g.Name, pd.Slice.Name, fail)
	}
	t.insts, t.imgKB = warm.Insts, float64(img.Bytes())/1024
	cj, _ := json.Marshal(cold)
	wj, _ := json.Marshal(warm)
	if !bytes.Equal(cj, wj) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("probe: %s/%s forked run differs from its cold run", g.Name, pd.Slice.Name))
	}
	return sim, t, nil
}

// probeShards re-runs the sampled request as fabric shards through the
// public shard functions, with the wire's JSON round trip, and checks
// that the merge equals the single-process run.
func (b *bench) probeShards(rep *report, set func(string, float64), p *experiments.PopulationRun) error {
	opts := []experiments.Option{experiments.WithWorkers(1), experiments.WithGenerations(p.Gens)}
	if p.PopID != "" {
		opts = append(opts, experiments.WithPopulation(p.PopID, p.Slices))
	}
	shards := experiments.PlanShards(len(p.Gens), len(p.Slices), 8)
	docs := make([]*experiments.ShardDoc, len(shards))
	var shardS float64
	for i, sh := range shards {
		var doc *experiments.ShardDoc
		var err error
		shardS += b.timed("fabric", "shard", func() { doc, err = experiments.RunShard(context.Background(), p.Spec, sh, opts...) })
		if err != nil {
			return err
		}
		wire, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		docs[i] = new(experiments.ShardDoc)
		if err := json.Unmarshal(wire, docs[i]); err != nil {
			return err
		}
	}
	set("fabric.shard_ms", shardS/float64(len(shards))*1e3)
	var merged *experiments.PopulationRun
	var err error
	set("fabric.merge_ms", b.timed("fabric", "merge", func() {
		merged, err = experiments.MergeShards(p.Spec, p.Gens, p.Slices, docs)
	})*1e3)
	if err != nil {
		return err
	}
	merged.PopID = p.PopID
	a, _ := json.Marshal(merged.SummaryDoc())
	c, _ := json.Marshal(p.SummaryDoc())
	if !bytes.Equal(a, c) {
		rep.Problems = append(rep.Problems, "probe: merged shards differ from the single-process run")
	}
	return nil
}

// simInvariants reports simulated (not host) figures of the sampled run;
// a change that only affects speed must leave them bit-identical.
func simInvariants(set func(string, float64), p *experiments.PopulationRun) {
	doc := p.SummaryDoc()
	ipc := doc.Means["ipc"]
	set("sim.ipc.M1", ipc["M1"])
	set("sim.ipc.M6", ipc["M6"])
	set("sim.ipc_ratio_m6_m1", ipc["M6"]/ipc["M1"])
	set("sim.mpki.M6", doc.Means["mpki"]["M6"])
	set("sim.load_lat.M6", doc.Means["load_lat"]["M6"])
	var sup, uops uint64
	for g, gen := range p.Gens {
		if gen.Name != "M6" {
			continue
		}
		for _, r := range p.Results[g] {
			sup += r.Pipe.UOCSupplied
			uops += r.Pipe.Uops
		}
	}
	set("sim.uoc_supplied_frac.M6", float64(sup)/float64(uops))
}

// replay times single layers in isolation on a slice's own instruction
// stream: the warmup prefix trains each structure off the clock and the
// measured region is timed.
type replay struct {
	sec, count map[string]float64
}

func (rp *replay) add(key string, sec float64, n int) {
	if rp.sec == nil {
		rp.sec, rp.count = map[string]float64{}, map[string]float64{}
	}
	rp.sec[key] += sec
	rp.count[key] += float64(n)
}

// per returns nanoseconds per operation of key.
func (rp *replay) per(key string) float64 { return rp.sec[key] * 1e9 / rp.count[key] }

// block is one basic block as the pipeline hands it to the UOC.
type block struct {
	pc     uint64
	uops   int
	locked bool // μBTB lock state after the block's closing branch
}

// runBranch times branch.Frontend.Step over the measured region and
// returns the slice's basic blocks, with the index of the first
// measured one, from a second untimed pass.
func (rp *replay) runBranch(b *bench, key string, g core.GenConfig, sl *trace.Slice) ([]block, int) {
	ins := sl.Insts
	f := branch.NewFrontend(g.Branch)
	for i := 0; i < sl.Warmup; i++ {
		f.Step(&ins[i])
	}
	d := b.timed("branch", "replay."+key, func() {
		for i := sl.Warmup; i < len(ins); i++ {
			f.Step(&ins[i])
		}
	})
	rp.add("branch."+key, d, len(ins)-sl.Warmup)

	f = branch.NewFrontend(g.Branch)
	var blocks []block
	warmBlocks := 0
	start, uops := uint64(0), 0
	for i := range ins {
		in := &ins[i]
		if i == sl.Warmup {
			warmBlocks = len(blocks)
		}
		f.Step(in)
		if start == 0 {
			start = in.PC
		}
		uops += in.MicroOps()
		if in.Branch.IsBranch() && in.Taken {
			blocks = append(blocks, block{start, uops, f.UBTBLocked()})
			start, uops = in.Target, 0
		}
	}
	return blocks, warmBlocks
}

// run replays the M6 front end, memory system, L1D, L1 DTLB and UOC of
// generation g over sl. The memory-side replays advance one cycle per
// instruction.
func (rp *replay) run(b *bench, g core.GenConfig, sl *trace.Slice) {
	blocks, warmBlocks := rp.runBranch(b, "M6", g, sl)
	ins := sl.Insts

	// The memory replay's clock is a blocking in-order core: one cycle
	// per instruction plus every returned fetch stall and load latency,
	// so outstanding misses never pile up beyond what a core would allow.
	m := mem.New(g.Mem)
	line, now := ^uint64(0), uint64(0)
	memStep := func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			in := &ins[i]
			now++
			if l := in.PC >> 6; l != line {
				line = l
				now += uint64(m.FetchInst(in.PC, now))
				n++
			}
			switch in.Class {
			case isa.Load:
				now += uint64(m.Load(in.PC, in.Addr, now, false))
				n++
			case isa.Store:
				m.Store(in.PC, in.Addr, now)
				n++
			}
		}
		return n
	}
	memStep(0, sl.Warmup)
	var n int
	d := b.timed("mem", "replay", func() { n = memStep(sl.Warmup, len(ins)) })
	rp.add("mem", d, n)

	c := cache.New(g.Mem.L1D)
	t := tlb.New(g.Mem.DTLB)
	lat := uint64(g.Mem.L2.Latency)
	cacheStep := func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if in := &ins[i]; in.Class.IsMem() {
				now := uint64(i)
				if !c.Lookup(in.Addr, now, false).Hit {
					c.Fill(in.Addr, now, now+lat, 0, cache.InsertOrdinary)
				}
				n++
			}
		}
		return n
	}
	tlbStep := func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if in := &ins[i]; in.Class.IsMem() {
				if !t.Lookup(in.Addr) {
					t.Insert(in.Addr)
				}
				n++
			}
		}
		return n
	}
	cacheStep(0, sl.Warmup)
	d = b.timed("cache", "replay.L1D", func() { n = cacheStep(sl.Warmup, len(ins)) })
	rp.add("cache", d, n)
	tlbStep(0, sl.Warmup)
	d = b.timed("tlb", "replay.L1DTLB", func() { n = tlbStep(sl.Warmup, len(ins)) })
	rp.add("tlb", d, n)

	u := uoc.New(g.Pipe.UOC)
	for _, bl := range blocks[:warmBlocks] {
		u.Step(bl.pc, bl.uops, bl.locked)
	}
	measured := blocks[warmBlocks:]
	d = b.timed("uoc", "replay", func() {
		for _, bl := range measured {
			u.Step(bl.pc, bl.uops, bl.locked)
		}
	})
	rp.add("uoc", d, len(measured))
}

// cpuShares folds a CPU profile by package with the toolchain's pprof:
// each listed package's share of all sampled CPU time, and the rest as
// "other".
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", "-unit=ms"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{"other": 1}
	for _, p := range cpuPackages {
		shares[p.name] = 0
	}
	var total float64
	header := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && strings.Contains(line, "% of ") && strings.HasSuffix(line, "total"):
			// "Showing nodes accounting for X, Y% of Z total"
			total, err = parseMs(f[len(f)-2])
			if err != nil {
				return nil, err
			}
		case len(f) > 0 && f[0] == "flat":
			header = true
		case header && len(f) >= 6:
			flat, err := parseMs(f[0])
			if err != nil {
				return nil, err
			}
			if name := packageOf(strings.Join(f[5:], " ")); name != "" {
				shares[name] += flat
				shares["other"] -= flat / total
			}
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("go tool pprof: empty profiles %v", profiles)
	}
	for _, p := range cpuPackages {
		shares[p.name] /= total
	}
	return shares, nil
}

func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// packageOf maps a pprof function name to its cpuPackages entry, or "".
func packageOf(fn string) string {
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	for _, p := range cpuPackages {
		if path == p.path || strings.HasPrefix(path, p.path+"/") ||
			(p.name == "runtime" && strings.HasPrefix(path, "internal/runtime/")) {
			return p.name
		}
	}
	return ""
}

// selfTimes folds a span file into self time per span kind: each span's
// duration minus the time its direct children on the same lane cover.
func selfTimes(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  *int64 `json:"dur"`
			TID  int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("span file %s: %w", path, err)
	}
	type span struct {
		key        string
		start, end int64
		self       int64
	}
	lanes := map[int32][]*span{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Dur != nil {
			lanes[e.TID] = append(lanes[e.TID], &span{key: e.Cat + "." + e.Name, start: e.TS, end: e.TS + *e.Dur, self: *e.Dur})
		}
	}
	self := map[string]float64{}
	for _, spans := range lanes {
		// Parents first: earlier start, then the longer span.
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []*span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end <= stack[len(stack)-1].end {
				stack[len(stack)-1].self -= s.end - s.start
			}
			stack = append(stack, s)
		}
		for _, s := range spans {
			self[s.key] += float64(s.self) / 1e3
		}
	}
	return self, nil
}
