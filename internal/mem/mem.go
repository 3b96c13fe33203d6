// Package mem assembles the per-generation memory system: L1I/L1D, the
// sectored L2, the exclusive L3 (M3+), the TLB stack, all four prefetch
// engines, the MAB/fill-buffer limits, the one-pass/two-pass prefetch
// issue scheme, the coordinated exclusive-hierarchy castout management
// (§VIII-A), and the §IX DRAM path features. Its Load/Store/FetchInst
// methods return per-access latencies in core cycles; the pipeline model
// drives them with its current cycle, and Fig. 16 / Table IV come from
// the recorded load-latency population.
package mem

import (
	"exysim/internal/cache"
	"exysim/internal/dram"
	"exysim/internal/obs"
	"exysim/internal/prefetch"
	"exysim/internal/rng"
	"exysim/internal/stats"
	"exysim/internal/tlb"
	"exysim/internal/uncore"
)

// Config is one generation's memory system.
type Config struct {
	Name string

	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	L3  cache.Config // SizeKB == 0 means no L3 (M1/M2)

	// HasCascade enables the M4+ load-to-load cascading (3-cycle
	// effective L1 latency for pointer-chasing loads, §III).
	HasCascade bool

	// MABs bounds outstanding L1 misses (fill buffers on M1-M3, the
	// data-less memory address buffers from M4 on, §VII).
	MABs int

	DTLB        tlb.Config
	D15         tlb.Config // zero Entries = absent (pre-M3)
	ITLB        tlb.Config
	L2TLB       tlb.Config
	WalkLatency int

	// Prefetch engines; Enabled flags follow the generations.
	MSP           prefetch.MSPConfig
	HasSMS        bool // M3+
	SMS           prefetch.SMSConfig
	HasBuddy      bool // M4+
	HasStandalone bool // M5+
	Standalone    prefetch.StandaloneConfig
	// OnePassWatermark is how many first-pass L2 hits flip the MSP
	// issue into one-pass mode (§VII-B).
	OnePassWatermark int

	// Sharers is how many cores share the L2 (Table I: 4 on M1/M2,
	// private on M3/M4, 2 on M5/M6). With CoRunnerLoad > 0, the other
	// cluster cores inject background traffic into the shared levels,
	// consuming capacity and DRAM bandwidth — the contention that
	// motivated M3's move to a private L2 (§III).
	Sharers int
	// ClusterCores is the cluster size (4 cores through M3, 2 after);
	// co-runner traffic comes from the other ClusterCores-1 cores and
	// lands in the innermost shared level (the L2 when Sharers > 1,
	// else the L3) plus DRAM.
	ClusterCores int
	// CoRunnerLoad is the probability, per demand L1 miss, that each
	// co-runner injects one access into the shared hierarchy. Zero
	// (the default) models the paper's single-benchmark methodology.
	CoRunnerLoad float64

	Uncore uncore.Config
	DRAM   dram.Config
}

// Stats aggregates system-level results.
type Stats struct {
	Loads, Stores uint64
	LoadLat       stats.Summary

	L1DHits, L2Hits, L3Hits, MemHits                    uint64
	StoreForwards                                       uint64
	Writebacks                                          uint64
	InFlightHits                                        uint64 // demand caught an in-flight prefetch
	MABStallCycles                                      uint64
	TwoPassIssues, OnePassIssues                        uint64
	SpecReadSavings                                     uint64
	CastoutsElevated, CastoutsOrdinary, CastoutsDropped uint64
	CoRunnerL2Fills, CoRunnerL3Fills                    uint64
}

// System is one core's memory hierarchy instance.
type System struct {
	cfg Config

	l1i, l1d, l2 *cache.Cache
	l3           *cache.Cache // nil for M1/M2

	dtlbs tlb.Hierarchy
	itlbs tlb.Hierarchy

	msp        *prefetch.MultiStride
	sms        *prefetch.SMS
	buddy      *prefetch.Buddy
	standalone *prefetch.Standalone

	unc *uncore.Uncore

	// In-flight demand misses for the MAB limit.
	inflight []uint64

	// One-pass/two-pass state (§VII-B).
	onePass  bool
	fpL2Hits int

	// coRng drives co-runner traffic injection deterministically.
	coRng     *rng.RNG
	coPattern uint64

	// stb is a small store-buffer model for store-to-load forwarding:
	// recent store addresses (line-granular FIFO). A load hitting a
	// buffered store forwards at ALU-like latency without a cache probe.
	stb    [stbEntries]uint64
	stbPos int

	// pfSlot paces prefetch issue: engines can hand the system a burst
	// of requests in one call, but the machine issues them at L2-port
	// bandwidth, so a degree-40 ramp cannot slam forty DRAM reads into
	// one cycle ahead of younger demands.
	pfSlot uint64

	// tracer, when non-nil, records demand-miss and prefetch lifetimes.
	tracer *obs.Tracer

	st Stats
}

// pfIssueInterval is the pacing between issued prefetches (cycles), and
// pfMaxLead bounds how far the pacing queue may run ahead before
// further prefetches are dropped.
const (
	pfIssueInterval = 4
	pfMaxLead       = 240
)

// stbEntries sizes the store buffer (line-granular).
const stbEntries = 24

// stbForward reports whether addr's doubleword hits a buffered store.
func (s *System) stbForward(addr uint64) bool {
	dw := addr &^ 7
	for _, e := range s.stb {
		if e == dw {
			return true
		}
	}
	return false
}

func (s *System) stbInsert(addr uint64) {
	s.stb[s.stbPos] = addr &^ 7
	if s.stbPos++; s.stbPos == stbEntries {
		s.stbPos = 0
	}
}

// promoteCap bounds how long a demand can wait on an in-flight
// prefetched line: a demand hitting an in-flight prefetch promotes the
// request to demand priority at the memory controller. By then the
// prefetch has normally activated the row already, so the bound is the
// request/return path plus the column access.
func (s *System) promoteCap() uint64 {
	u := s.cfg.Uncore
	d := s.cfg.DRAM
	return uint64(2*u.CrossingCycles + u.QueueCycles + u.SnoopFilterCycles +
		d.TCAS + 2*u.CrossingCycles + u.QueueCycles)
}

// pacePrefetch returns the issue cycle for a prefetch requested at now,
// or ok=false when the prefetch queue is saturated and the request is
// dropped.
func (s *System) pacePrefetch(now uint64) (uint64, bool) {
	at := now
	if s.pfSlot > at {
		at = s.pfSlot
	}
	if at > now+pfMaxLead {
		return 0, false
	}
	s.pfSlot = at + pfIssueInterval
	return at, true
}

// New builds the system.
func New(cfg Config) *System {
	s := &System{cfg: cfg}
	s.l1i = cache.New(cfg.L1I)
	s.l1d = cache.New(cfg.L1D)
	s.l2 = cache.New(cfg.L2)
	if cfg.L3.SizeKB > 0 {
		s.l3 = cache.New(cfg.L3)
	}
	s.dtlbs = tlb.Hierarchy{L1: tlb.New(cfg.DTLB), L2: tlb.New(cfg.L2TLB), WalkLatency: cfg.WalkLatency}
	if cfg.D15.Entries > 0 {
		s.dtlbs.L15 = tlb.New(cfg.D15)
	}
	s.itlbs = tlb.Hierarchy{L1: tlb.New(cfg.ITLB), L2: tlb.New(cfg.L2TLB), WalkLatency: cfg.WalkLatency}
	s.msp = prefetch.NewMultiStride(cfg.MSP)
	if cfg.HasSMS {
		s.sms = prefetch.NewSMS(cfg.SMS)
	}
	if cfg.HasBuddy {
		s.buddy = &prefetch.Buddy{}
	}
	if cfg.HasStandalone {
		s.standalone = prefetch.NewStandalone(cfg.Standalone)
	}
	s.unc = uncore.New(cfg.Uncore, dram.New(cfg.DRAM))
	s.coRng = rng.New(0xC0F0EE ^ uint64(len(cfg.Name)))
	return s
}

// Config returns the generation configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a snapshot.
func (s *System) Stats() Stats { return s.st }

// ResetStats clears counters, keeping all learned/warm state.
func (s *System) ResetStats() {
	s.st = Stats{}
	s.l1i.ResetStats()
	s.l1d.ResetStats()
	s.l2.ResetStats()
	if s.l3 != nil {
		s.l3.ResetStats()
	}
}

// Reset restores the whole memory system to its post-New cold state in
// place — caches, TLBs, prefetch engines, uncore/DRAM, the MAB list, the
// one-pass state, the co-runner RNG, and the store buffer — without
// reallocating any backing storage. The tracer and a ShareUncore
// replacement stay installed (the shared path is reset through whatever
// s.unc points to).
func (s *System) Reset() {
	s.l1i.Reset()
	s.l1d.Reset()
	s.l2.Reset()
	if s.l3 != nil {
		s.l3.Reset()
	}
	s.dtlbs.Reset()
	s.itlbs.Reset()
	s.msp.Reset()
	if s.sms != nil {
		s.sms.Reset()
	}
	if s.buddy != nil {
		s.buddy.Reset()
	}
	if s.standalone != nil {
		s.standalone.Reset()
	}
	s.unc.Reset()
	s.inflight = s.inflight[:0]
	s.onePass = false
	s.fpL2Hits = 0
	s.coRng.Reseed(0xC0F0EE ^ uint64(len(s.cfg.Name)))
	s.coPattern = 0
	s.stb = [stbEntries]uint64{}
	s.stbPos = 0
	s.pfSlot = 0
	s.st = Stats{}
}

// Uncore exposes the memory path (stats, ablations).
func (s *System) Uncore() *uncore.Uncore { return s.unc }

// SetTracer installs a cycle-event tracer on the memory system and its
// DRAM device (nil disables).
func (s *System) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.unc.DRAM().SetTracer(t)
}

// RegisterMetrics publishes the whole memory system into an
// observability scope: its own demand/castout counters, each cache
// level, the TLB stacks, every prefetch engine, the uncore path, and
// the DRAM device.
func (s *System) RegisterMetrics(sc *obs.Scope) {
	st := &s.st
	sc.Counter("loads", func() uint64 { return st.Loads })
	sc.Counter("stores", func() uint64 { return st.Stores })
	sc.Counter("l1d_hits", func() uint64 { return st.L1DHits })
	sc.Counter("l2_hits", func() uint64 { return st.L2Hits })
	sc.Counter("l3_hits", func() uint64 { return st.L3Hits })
	sc.Counter("dram_hits", func() uint64 { return st.MemHits })
	sc.Counter("store_forwards", func() uint64 { return st.StoreForwards })
	sc.Counter("writebacks", func() uint64 { return st.Writebacks })
	sc.Counter("inflight_hits", func() uint64 { return st.InFlightHits })
	sc.Counter("mab_stall_cycles", func() uint64 { return st.MABStallCycles })
	sc.Counter("two_pass_issues", func() uint64 { return st.TwoPassIssues })
	sc.Counter("one_pass_issues", func() uint64 { return st.OnePassIssues })
	sc.Counter("spec_read_savings", func() uint64 { return st.SpecReadSavings })
	sc.Counter("castouts_elevated", func() uint64 { return st.CastoutsElevated })
	sc.Counter("castouts_ordinary", func() uint64 { return st.CastoutsOrdinary })
	sc.Counter("castouts_dropped", func() uint64 { return st.CastoutsDropped })
	sc.Counter("corunner_l2_fills", func() uint64 { return st.CoRunnerL2Fills })
	sc.Counter("corunner_l3_fills", func() uint64 { return st.CoRunnerL3Fills })
	sc.Gauge("load_lat_mean", func() float64 { return st.LoadLat.Mean() })
	sc.Gauge("load_lat_max", func() float64 { return st.LoadLat.Max() })

	s.l1i.RegisterMetrics(sc.Child("l1i"))
	s.l1d.RegisterMetrics(sc.Child("l1d"))
	s.l2.RegisterMetrics(sc.Child("l2"))
	if s.l3 != nil {
		s.l3.RegisterMetrics(sc.Child("l3"))
	}
	tlbs := sc.Child("tlb")
	s.dtlbs.RegisterMetrics(tlbs.Child("d"))
	s.itlbs.RegisterMetrics(tlbs.Child("i"))

	pf := sc.Child("prefetch")
	msp := pf.Child("msp")
	msp.Counter("trains", func() uint64 { return s.msp.Stats().Trains })
	msp.Counter("locks", func() uint64 { return s.msp.Stats().Locks })
	msp.Counter("issued", func() uint64 { return s.msp.Stats().Issued })
	msp.Counter("confirmations", func() uint64 { return s.msp.Stats().Confirmations })
	msp.Counter("degree_ups", func() uint64 { return s.msp.Stats().DegreeUps })
	msp.Counter("degree_downs", func() uint64 { return s.msp.Stats().DegreeDowns })
	msp.Counter("skip_aheads", func() uint64 { return s.msp.Stats().SkipAheads })
	if s.sms != nil {
		sms := pf.Child("sms")
		sms.Counter("regions_trained", func() uint64 { return s.sms.Stats().RegionsTrained })
		sms.Counter("predictions", func() uint64 { return s.sms.Stats().Predictions })
		sms.Counter("issued_l1", func() uint64 { return s.sms.Stats().IssuedL1 })
		sms.Counter("issued_l2", func() uint64 { return s.sms.Stats().IssuedL2 })
		sms.Counter("suppressed", func() uint64 { return s.sms.Stats().Suppressed })
	}
	if s.buddy != nil {
		buddy := pf.Child("buddy")
		buddy.Counter("issued", func() uint64 { return s.buddy.Stats().Issued })
		buddy.Counter("used", func() uint64 { return s.buddy.Stats().Used })
		buddy.Counter("suppressed", func() uint64 { return s.buddy.Stats().Suppressed })
	}
	if s.standalone != nil {
		sa := pf.Child("standalone")
		sa.Counter("phantoms", func() uint64 { return s.standalone.Stats().Phantoms })
		sa.Counter("issued", func() uint64 { return s.standalone.Stats().Issued })
		sa.Counter("filter_hits", func() uint64 { return s.standalone.Stats().FilterHits })
		sa.Counter("promotions", func() uint64 { return s.standalone.Stats().Promotions })
		sa.Counter("demotions", func() uint64 { return s.standalone.Stats().Demotions })
		sa.Counter("page_reseeds", func() uint64 { return s.standalone.Stats().PageReseeds })
	}

	// Uncore and DRAM are read through the accessor so metrics follow a
	// ShareUncore replacement (the cluster arrangement of §I).
	unc := sc.Child("uncore")
	unc.Counter("reads", func() uint64 { return s.unc.Stats().Reads })
	unc.Counter("spec_issued", func() uint64 { return s.unc.Stats().SpecIssued })
	unc.Counter("spec_cancelled", func() uint64 { return s.unc.Stats().SpecCancelled })
	unc.Counter("early_activates", func() uint64 { return s.unc.Stats().EarlyActivates })
	unc.Counter("fastpath_returns", func() uint64 { return s.unc.Stats().FastPathReturns })
	dr := sc.Child("dram")
	dr.Counter("accesses", func() uint64 { return s.unc.DRAM().Stats().Accesses })
	dr.Counter("row_hits", func() uint64 { return s.unc.DRAM().Stats().RowHits })
	dr.Counter("row_misses", func() uint64 { return s.unc.DRAM().Stats().RowMisses })
	dr.Counter("row_conflicts", func() uint64 { return s.unc.DRAM().Stats().RowConflicts })
	dr.Counter("hints_honored", func() uint64 { return s.unc.DRAM().Stats().HintsHonored })
	dr.Counter("hints_ignored", func() uint64 { return s.unc.DRAM().Stats().HintsIgnored })
}

// originTraceName maps a prefetch origin to a static event name so
// tracing never allocates.
func originTraceName(origin uint8) string {
	switch origin {
	case cache.OriginMSP:
		return "pf-msp"
	case cache.OriginSMS:
		return "pf-sms"
	case cache.OriginBuddy:
		return "pf-buddy"
	case cache.OriginStandalone:
		return "pf-standalone"
	}
	return "pf-demand"
}

// ShareUncore replaces this system's memory path with a shared one, so
// several cores contend for the same DRAM banks and controller — the
// cluster arrangement of §I. Call before simulation starts.
func (s *System) ShareUncore(u *uncore.Uncore) { s.unc = u }

// MSP exposes the multi-stride engine (stats, tests).
func (s *System) MSP() *prefetch.MultiStride { return s.msp }

// Standalone exposes the standalone engine (may be nil).
func (s *System) Standalone() *prefetch.Standalone { return s.standalone }

// Buddy exposes the buddy engine (may be nil).
func (s *System) Buddy() *prefetch.Buddy { return s.buddy }

// L1D exposes the data cache (tests).
func (s *System) L1D() *cache.Cache { return s.l1d }

// L2 exposes the second-level cache (tests).
func (s *System) L2() *cache.Cache { return s.l2 }

// L3 exposes the last-level cache (nil for M1/M2).
func (s *System) L3() *cache.Cache { return s.l3 }

// pruneInflight drops retired misses.
func (s *System) pruneInflight(now uint64) {
	// Fast path: scan read-only until the first expired entry — usually
	// there is none, and the compaction stores are skipped entirely.
	i := 0
	for i < len(s.inflight) && s.inflight[i] > now {
		i++
	}
	if i == len(s.inflight) {
		return
	}
	out := s.inflight[:i]
	for _, t := range s.inflight[i+1:] {
		if t > now {
			out = append(out, t)
		}
	}
	s.inflight = out
}

// mabAdmit models the outstanding-miss limit: if all MABs are busy the
// access stalls until the earliest in-flight miss retires.
func (s *System) mabAdmit(now uint64) (uint64, int) {
	s.pruneInflight(now)
	if len(s.inflight) < s.cfg.MABs {
		return now, 0
	}
	earliest := s.inflight[0]
	for _, t := range s.inflight {
		if t < earliest {
			earliest = t
		}
	}
	stall := int(earliest - now)
	if stall < 0 {
		stall = 0
	}
	s.st.MABStallCycles += uint64(stall)
	if s.tracer != nil && stall > 0 {
		s.tracer.Span("mem", "mab-stall", now, uint64(stall), obs.LaneMem)
	}
	return earliest, stall
}

// memRead runs the full path below the L2: L3 (exclusive), then DRAM
// with the generation's §IX features. It returns the cycle data arrives
// at the cluster and fills the touched levels. critical marks
// latency-critical reads (demand load miss, instruction miss, walks).
func (s *System) memRead(addr uint64, now uint64, origin uint8, critical bool) (dataAt uint64, level int) {
	// M5 speculative read: launch toward memory in parallel with the
	// L3 tag lookup when the miss predictor says the line is absent.
	spec := s.unc.SpecReadStart(addr, critical)

	if s.l3 != nil {
		r := s.l3.Lookup(addr, now, false)
		if r.Hit {
			if spec {
				// Directory found the line in the bypassed caches:
				// cancel the speculative DRAM read.
				s.unc.NoteSpecCancelled()
			}
			s.unc.TrainMiss(addr, false)
			// Exclusive hierarchy: the line moves up, leaving the L3.
			s.l3.Invalidate(addr)
			dataAt = now + uint64(s.cfg.L3.Latency)
			if r.ReadyAt > dataAt {
				dataAt = r.ReadyAt
			}
			return dataAt, 3
		}
	}
	s.unc.TrainMiss(addr, true)
	issue := now
	if !spec {
		// Without the speculative bypass the request leaves for memory
		// only after the cache levels have been probed serially.
		if s.l3 != nil {
			issue += uint64(s.cfg.L3.Latency) / 2
		}
	} else {
		s.st.SpecReadSavings++
	}
	return s.unc.Read(addr, issue, critical, origin != cache.OriginDemand), 4
}

// l2Read probes the L2 and below. Returns data-arrival cycle and the
// level that supplied it (2, 3, 4). Fills the L2 on L2 misses.
func (s *System) l2Read(addr uint64, now uint64, origin uint8, critical, demand bool) (uint64, int) {
	if s.standalone != nil {
		for _, req := range s.standalone.OnL2Access(addr, demand) {
			s.standalonePrefetch(req, now)
		}
	}
	r := s.l2.Lookup(addr, now, false)
	if r.Hit {
		if r.WasPrefetch {
			s.feedbackPrefetchHit(addr)
		}
		dataAt := now + uint64(s.cfg.L2.Latency+s.l2.PortDelay(now))
		if r.ReadyAt > dataAt {
			dataAt = r.ReadyAt
			// In-flight prefetch promoted to demand priority.
			if demand {
				if cap := now + uint64(s.cfg.L2.Latency) + s.promoteCap(); dataAt > cap {
					dataAt = cap
				}
			}
		}
		return dataAt, 2
	}
	// L2 demand miss: buddy prefetch of the neighbour sector line
	// (§VIII-B).
	if demand && s.buddy != nil {
		for _, req := range s.buddy.OnL2DemandMiss(addr) {
			s.issueToL2(req.Addr, now, cache.OriginBuddy)
		}
	}
	dataAt, level := s.memRead(addr, now, origin, demand)
	s.fillL2(addr, now, dataAt, origin)
	return dataAt, level
}

// fillL2 installs a line into the L2, routing the castout victim
// through the coordinated exclusive-hierarchy policy (§VIII-A). The fill
// occupies the L2 port per Table I's per-generation bandwidth.
func (s *System) fillL2(addr uint64, now, readyAt uint64, origin uint8) {
	if d := s.l2.PortDelay(now); d > 0 {
		readyAt += uint64(d)
	}
	v := s.l2.Fill(addr, now, readyAt, origin, cache.InsertElevated)
	s.castout(v, now)
}

// castout implements the coordinated cache-hierarchy management: on an
// L2 eviction, the line's reuse/re-allocation metadata chooses an L3
// insertion in elevated state, ordinary state, or no allocation at all
// (§VIII-A). Prefetched-but-never-used lines also feed the engines'
// accuracy filters.
func (s *System) castout(v cache.Victim, now uint64) {
	if !v.Valid {
		return
	}
	s.feedbackEvict(&v.Line)
	if s.l3 == nil {
		// Dirty L2 victims write back to DRAM, occupying bank time at
		// writeback (prefetch-class) priority.
		if v.Line.Dirty {
			s.st.Writebacks++
			s.unc.Write(v.Addr, now)
		}
		return
	}
	switch {
	case v.Line.Prefetched && !v.Line.DemandHit && v.Line.Origin != cache.OriginDemand:
		// Dead prefetch: do not pollute the L3. (Second-pass prefetch
		// traffic is likewise filtered from reuse marking, §VIII-A.)
		s.st.CastoutsDropped++
		if v.Line.Dirty {
			s.st.Writebacks++
			s.unc.Write(v.Addr, now)
		}
	case v.Line.Reuse >= 2 || v.Line.Realloc:
		s.st.CastoutsElevated++
		lv := s.l3.Fill(v.Addr, now, now, cache.OriginDemand, cache.InsertElevated)
		s.l3.SetRealloc(v.Addr)
		if v.Line.Dirty {
			s.l3.Touch(v.Addr, true)
		}
		s.l3Writeback(lv, now)
	default:
		s.st.CastoutsOrdinary++
		lv := s.l3.Fill(v.Addr, now, now, cache.OriginDemand, cache.InsertOrdinary)
		if v.Line.Dirty {
			s.l3.Touch(v.Addr, true)
		}
		s.l3Writeback(lv, now)
	}
}

// l3Writeback sends a dirty L3 victim to DRAM.
func (s *System) l3Writeback(v cache.Victim, now uint64) {
	if v.Valid && v.Line.Dirty {
		s.st.Writebacks++
		s.unc.Write(v.Addr, now)
	}
}

// feedbackEvict routes eviction outcomes to the engines' filters.
func (s *System) feedbackEvict(l *cache.Line) {
	used := l.DemandHit || !l.Prefetched
	switch l.Origin {
	case cache.OriginBuddy:
		if s.buddy != nil {
			s.buddy.OnBuddyOutcome(used)
		}
	case cache.OriginStandalone:
		if s.standalone != nil {
			s.standalone.OnPrefetchOutcome(used)
		}
	}
}

// feedbackPrefetchHit rewards the owning engine when a demand first
// touches a prefetched line.
func (s *System) feedbackPrefetchHit(addr uint64) {
	if l := s.l2.Peek(addr); l != nil {
		switch l.Origin {
		case cache.OriginBuddy:
			if s.buddy != nil {
				s.buddy.OnBuddyOutcome(true)
			}
		case cache.OriginStandalone:
			if s.standalone != nil {
				s.standalone.OnPrefetchOutcome(true)
			}
		}
	}
}

// issueToL2 performs a prefetch fill into the L2 only (first-pass /
// buddy / standalone), without consuming an L1 MAB.
func (s *System) issueToL2(addr uint64, now uint64, origin uint8) {
	if s.l2.Contains(addr) {
		return
	}
	at, ok := s.pacePrefetch(now)
	if !ok {
		return
	}
	if d := s.l2.PortDelay(at); d > 0 {
		at += uint64(d)
	}
	dataAt, _ := s.memRead(addr, at, origin, false)
	if s.tracer != nil {
		// Prefetch lifetime: issue at `at`, line ready at dataAt.
		s.tracer.Span("prefetch", originTraceName(origin), at, dataAt-at, obs.LanePrefetch)
	}
	// Prefetch fills insert at MRU like demand fills: consecutive
	// ordinary-priority fills into one set would evict each other
	// before the demand arrives. Accuracy is policed by the engines'
	// confidence machinery, and dead prefetches are filtered at castout
	// time instead (§VIII-A).
	v := s.l2.Fill(addr, at, dataAt, origin, cache.InsertElevated)
	s.castout(v, at)
}

// standalonePrefetch issues a standalone-engine request toward L2/L3.
func (s *System) standalonePrefetch(req prefetch.Request, now uint64) {
	s.issueToL2(req.Addr, now, cache.OriginStandalone)
}

// corePrefetch issues an L1-targeted (multi-stride or SMS) prefetch,
// applying the one-pass/two-pass scheme (§VII-B): in two-pass mode the
// first pass fills only the L2 without taking an L1 miss buffer; in
// one-pass mode (entered when first-pass prefetches keep hitting in the
// L2) the line goes straight into the L1 when a MAB is free.
func (s *System) corePrefetch(req prefetch.Request, now uint64, origin uint8) {
	// Virtual-address prefetching crosses pages and pre-warms the TLBs
	// (§VII-A).
	s.dtlbs.Prefill(req.Addr)
	if s.l1d.Contains(req.Addr) {
		return
	}
	if req.FirstPassL2 {
		// Low-confidence SMS: only the outer-level prefetch.
		if !s.l2.Contains(req.Addr) {
			s.issueToL2(req.Addr, now, origin)
		}
		return
	}
	if !s.onePass {
		// Two-pass (§VII-B, Fig. 14): pass 1 sends a fill request to
		// the L2 without allocating an L1 miss buffer; pass 2 fills
		// the L1 as soon as a MAB is available (immediately, if one is
		// free). Track first-pass L2 hits for the one-pass watermark.
		s.st.TwoPassIssues++
		l2Resident := s.l2.Contains(req.Addr)
		if l2Resident {
			s.fpL2Hits++
			if s.fpL2Hits >= s.cfg.OnePassWatermark {
				s.onePass = true
			}
		} else {
			if s.fpL2Hits > 0 {
				s.fpL2Hits--
			}
			s.issueToL2(req.Addr, now, origin)
		}
		// Second pass: the L1 fill happens once the L2 holds the data
		// (step 4 of Fig. 14) and sufficient MABs are free — the
		// scheme's purpose is to keep miss buffers available for
		// demands (§VII-B), so prefetches take only the spare half and
		// never park a MAB on a far-future DRAM completion.
		s.pruneInflight(now)
		if len(s.inflight) < s.cfg.MABs/2 {
			if r := s.l2.Lookup(req.Addr, now, true); r.Hit && r.ReadyAt <= now+uint64(s.cfg.L2.Latency) {
				dataAt := now + uint64(s.cfg.L2.Latency)
				s.inflight = append(s.inflight, dataAt)
				v := s.l1d.Fill(req.Addr, now, dataAt, origin, cache.InsertElevated)
				if v.Valid && v.Line.Dirty {
					s.fillL2(v.Addr, now, now, cache.OriginDemand)
				}
			}
		}
		return
	}
	// One-pass: fill the L1 directly when a MAB is free (leaving
	// demand headroom); fall back to an L2 fill otherwise.
	s.st.OnePassIssues++
	s.pruneInflight(now)
	if len(s.inflight) >= s.cfg.MABs/2 {
		if !s.l2.Contains(req.Addr) {
			s.issueToL2(req.Addr, now, origin)
		}
		return
	}
	var dataAt uint64
	r := s.l2.Lookup(addrAlign(req.Addr), now, true)
	if r.Hit {
		dataAt = now + uint64(s.cfg.L2.Latency)
		if r.ReadyAt > dataAt {
			dataAt = r.ReadyAt
		}
	} else {
		dataAt, _ = s.l2Read(req.Addr, now, origin, false, false)
	}
	if s.tracer != nil {
		s.tracer.Span("prefetch", originTraceName(origin), now, dataAt-now, obs.LanePrefetch)
	}
	s.inflight = append(s.inflight, dataAt)
	v := s.l1d.Fill(req.Addr, now, dataAt, origin, cache.InsertElevated)
	if v.Valid && v.Line.Dirty {
		s.fillL2(v.Addr, now, now, cache.OriginDemand)
		s.l2.Touch(v.Addr, true) // the writeback data is dirty in the L2
	}
}

func addrAlign(a uint64) uint64 { return a &^ 63 }

// Load performs a demand load at cycle now and returns its latency in
// cycles. cascade marks a load whose address comes directly from a
// prior load (the M4+ load-load cascading path, §III). The recorded
// Fig. 16 / Table IV load latency is issue-to-data and excludes cycles
// spent waiting for a free miss buffer — those structural stalls still
// delay the pipeline but are not part of the load's own latency.
func (s *System) Load(pc, addr uint64, now uint64, cascade bool) int {
	s.st.Loads++
	lat, stall := s.access(pc, addr, now, false, cascade)
	s.st.LoadLat.Add(float64(lat - stall))
	return lat
}

// Store performs a demand store; stores allocate like loads (write-back,
// write-allocate) but their latency rarely gates retirement.
func (s *System) Store(pc, addr uint64, now uint64) int {
	s.st.Stores++
	lat, _ := s.access(pc, addr, now, true, false)
	s.l1d.Touch(addr, true)
	s.stbInsert(addr)
	return lat
}

// access returns the total pipeline-visible latency and the portion that
// was a structural MAB-availability stall.
func (s *System) access(pc, addr uint64, now uint64, store, cascade bool) (int, int) {
	tlbLat := s.dtlbs.Translate(addr)
	base := s.cfg.L1D.Latency
	if cascade && s.cfg.HasCascade {
		base-- // 3-cycle effective latency for load-load cascades
	}

	// Store-to-load forwarding: a load whose doubleword sits in the
	// store buffer gets its data from there at ALU-like latency. The
	// address still counts as a demand access for prefetch
	// confirmations (§VII-B) and keeps the line's recency.
	if !store && s.stbForward(addr) {
		s.st.StoreForwards++
		s.st.L1DHits++
		s.l1d.Lookup(addr, now, true)
		for _, req := range s.msp.OnAccess(pc, addr) {
			s.corePrefetch(req, now, cache.OriginMSP)
		}
		return 1 + tlbLat, 0
	}

	r := s.l1d.Lookup(addr, now, false)
	if r.Hit {
		s.st.L1DHits++
		lat := base
		if r.ReadyAt > now+uint64(base) {
			// Demand caught an in-flight prefetch: pay the remainder,
			// bounded by promotion to demand priority.
			rem := r.ReadyAt - now
			if cap := s.promoteCap(); rem > cap {
				rem = cap
			}
			lat = int(rem)
			s.st.InFlightHits++
		}
		// Confirmations may extend a locked stream.
		for _, req := range s.msp.OnAccess(pc, addr) {
			s.corePrefetch(req, now, cache.OriginMSP)
		}
		return lat + tlbLat, 0
	}

	// Co-runner interference on the shared levels (§III): each other
	// sharer may inject one background access per demand miss.
	s.injectCoRunners(now)

	// L1 miss: take a MAB (stalling if none free).
	start, stall := s.mabAdmit(now)
	dataAt, level := s.l2Read(addr, start, cache.OriginDemand, true, true)
	switch level {
	case 2:
		s.st.L2Hits++
	case 3:
		s.st.L3Hits++
	default:
		s.st.MemHits++
	}
	if s.tracer != nil {
		name := "demand-miss-dram"
		switch level {
		case 2:
			name = "demand-miss-l2"
		case 3:
			name = "demand-miss-l3"
		}
		s.tracer.Span("mem", name, start, dataAt-start, obs.LaneMem)
	}
	s.inflight = append(s.inflight, dataAt)
	v := s.l1d.Fill(addr, start, dataAt, cache.OriginDemand, cache.InsertElevated)
	if v.Valid && v.Line.Dirty {
		s.fillL2(v.Addr, start, start, cache.OriginDemand)
		s.l2.Touch(v.Addr, true) // the writeback data is dirty in the L2
	}

	// Train the L1 engines on the miss (a miss is also a demand access;
	// OnMiss checks confirmations internally).
	for _, req := range s.msp.OnMiss(pc, addr) {
		s.corePrefetch(req, start, cache.OriginMSP)
	}
	if s.sms != nil {
		for _, req := range s.sms.OnMiss(pc, addr, s.msp.Confirmed(pc)) {
			s.corePrefetch(req, start, cache.OriginSMS)
		}
	}

	return stall + int(dataAt-start) + tlbLat, stall
}

// injectCoRunners models the other cores of the cluster touching the
// shared hierarchy: a mostly-streaming background pattern fills the
// shared L2 (M1/M2, M5/M6) — or only the L3 behind a private L2 — and
// occupies DRAM bank time, eroding both effective capacity and
// bandwidth.
func (s *System) injectCoRunners(now uint64) {
	if s.cfg.CoRunnerLoad <= 0 || s.cfg.ClusterCores <= 1 {
		return
	}
	for i := 1; i < s.cfg.ClusterCores; i++ {
		if !s.coRng.Bool(s.cfg.CoRunnerLoad) {
			continue
		}
		// A distant streaming region per injection keeps the traffic
		// from aliasing with the workload's own data.
		s.coPattern += 64 * uint64(1+s.coRng.Intn(4))
		addr := 0x7_0000_0000 + s.coPattern%(64<<20)
		dataAt, _ := s.memRead(addr, now, cache.OriginDemand, false)
		if s.cfg.L3.SizeKB == 0 || s.sharedL2() {
			s.st.CoRunnerL2Fills++
			v := s.l2.Fill(addr, now, dataAt, cache.OriginDemand, cache.InsertOrdinary)
			s.castout(v, now)
		} else if s.l3 != nil {
			s.st.CoRunnerL3Fills++
			s.l3.Fill(addr, now, dataAt, cache.OriginDemand, cache.InsertOrdinary)
		}
	}
}

// sharedL2 reports whether the L2 itself is the shared level.
func (s *System) sharedL2() bool { return s.cfg.Sharers > 1 }

// FetchInst models the instruction-side path for a fetch of the line at
// pc, returning added stall cycles (0 on an L1I hit).
func (s *System) FetchInst(pc uint64, now uint64) int {
	tlbLat := s.itlbs.Translate(pc)
	r := s.l1i.Lookup(pc, now, false)
	if r.Hit {
		return tlbLat
	}
	dataAt, _ := s.l2Read(pc, now, cache.OriginDemand, true, true)
	s.l1i.Fill(pc, now, dataAt, cache.OriginDemand, cache.InsertElevated)
	return int(dataAt-now) + tlbLat
}

// DTLBWalks exposes data-side page-table walk counts (diagnostics).
func (s *System) DTLBWalks() uint64 { return s.dtlbs.Walks() }
