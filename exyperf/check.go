package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/robust"
	"exysim/internal/serve"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// Reference sample sizes: population requests re-run through
// experiments.Run, and slice requests re-run on a fresh simulator.
// Samples come from the first refWindow requests of each stream, which
// every run completes (run extends its window until they have), so the
// same seed checks the same requests.
const (
	refPopulations = 2
	refSlices      = 3
	refWindow      = 4
)

// refSliceDoc mirrors the serving daemon's slice-job result document.
type refSliceDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Gen           string      `json:"gen"`
	Slice         string      `json:"slice"`
	Result        core.Result `json:"result"`
}

// requestSpec rebuilds the workload spec a request resolves to on the
// server: the tiny preset with the request's overrides.
func requestSpec(req serve.JobRequest) workload.SuiteSpec {
	spec := workload.TinySpec
	if req.Spec != nil {
		if req.Spec.InstsPerSlice != 0 {
			spec.InstsPerSlice = req.Spec.InstsPerSlice
		}
		if req.Spec.Seed != 0 {
			spec.Seed = req.Spec.Seed
		}
	}
	return spec.Normalize()
}

// referenceRun recomputes a population request in-process: no simulator
// pool, warm cache or fabric.
func (b *bench) referenceRun(req serve.JobRequest, pop *tracestore.Population) (*experiments.PopulationRun, error) {
	opts := []experiments.Option{experiments.WithWorkers(b.cfg.clients)}
	if req.M7 != nil {
		gens, err := experiments.HypotheticalGens(req.M7.Base, req.M7.Name, req.M7.Predictor)
		if err != nil {
			return nil, err
		}
		opts = append(opts, experiments.WithGenerations(gens))
	}
	if req.Trace != "" {
		if pop == nil || pop.Meta.ID != req.Trace {
			return nil, fmt.Errorf("reference: population %s not available", req.Trace)
		}
		opts = append(opts, experiments.WithPopulation(pop.Meta.ID, pop.Slices))
	}
	return experiments.Run(context.Background(), requestSpec(req), opts...)
}

// refSample picks, by r, the requests the reference check re-computes
// from the served ones: population and slice requests among the first
// refWindow of each stream. Candidates are ordered by stream position
// before the draw, so the choice depends on the seed alone, not on how
// the requests fell across windows.
func refSample(r *rand.Rand, served []sample) (pops, sls []sample) {
	for _, s := range served {
		switch {
		case s.index >= refWindow:
		case s.kind == kindSlice:
			sls = append(sls, s)
		default:
			pops = append(pops, s)
		}
	}
	byPosition := func(a, b sample) int {
		return cmp.Or(cmp.Compare(a.stream, b.stream), cmp.Compare(a.index, b.index))
	}
	slices.SortFunc(pops, byPosition)
	slices.SortFunc(sls, byPosition)
	return pick(r, pops, refPopulations), pick(r, sls, refSlices)
}

// reference re-computes a seeded sample of the served requests outside
// the timed window and compares the served documents byte for byte. It
// returns the reference runs of the sampled population requests and one
// message per mismatch.
func (b *bench) reference(served []sample, pop *tracestore.Population) ([]*experiments.PopulationRun, []string) {
	r := rand.New(rand.NewPCG(b.cfg.seed, 0xC4EC))
	pops, sls := refSample(r, served)
	var refs []*experiments.PopulationRun
	var probs []string
	for _, s := range pops {
		p, err := b.referenceRun(s.req, pop)
		if err != nil {
			probs = append(probs, err.Error())
			continue
		}
		refs = append(refs, p)
		doc, err := json.Marshal(p.SummaryDoc())
		switch {
		case err != nil:
			probs = append(probs, err.Error())
		case !bytes.Equal(doc, s.result):
			probs = append(probs, fmt.Sprintf("population %s: served result differs from the in-process reference", reqLabel(s.req)))
		case p.TotalInsts != s.insts:
			probs = append(probs, fmt.Sprintf("population %s: reference simulated %d insts, accounted %d", reqLabel(s.req), p.TotalInsts, s.insts))
		}
		// One cell of the sweep again, on a fresh simulator through the
		// classic run loop.
		g, i := r.IntN(len(p.Gens)), r.IntN(len(p.Slices))
		cur := p.Slices[i].Cursor()
		fresh, _ := json.Marshal(core.NewSimulator(p.Gens[g]).Run(&cur))
		swept, _ := json.Marshal(p.Results[g][i])
		if !bytes.Equal(fresh, swept) {
			probs = append(probs, fmt.Sprintf("population %s: %s/%s differs between the sweep and a fresh simulator", reqLabel(s.req), p.Gens[g].Name, p.Slices[i].Name))
		}
	}
	for _, s := range sls {
		doc, err := referenceSlice(s.req)
		if err != nil {
			probs = append(probs, err.Error())
		} else if !bytes.Equal(doc, s.result) {
			probs = append(probs, fmt.Sprintf("slice %s: served result differs from a fresh-simulator run", reqLabel(s.req)))
		}
	}
	return refs, probs
}

// referenceSlice runs a slice request on a fresh simulator.
func referenceSlice(req serve.JobRequest) ([]byte, error) {
	sl, err := workload.ByName(req.Slice, requestSpec(req))
	if err != nil {
		return nil, err
	}
	g, ok := core.GenByName(req.Gen)
	if !ok {
		return nil, fmt.Errorf("reference: unknown generation %q", req.Gen)
	}
	res, fail := robust.RunGuarded(core.NewSimulator(g), sl, robust.Options{CheckInvariants: true})
	if fail != nil {
		return nil, fmt.Errorf("reference %s: %s", reqLabel(req), fail)
	}
	return json.Marshal(refSliceDoc{experiments.ResultsSchemaVersion, req.Gen, req.Slice, res})
}

// pick returns up to n distinct elements of xs chosen by r.
func pick[T any](r *rand.Rand, xs []T, n int) []T {
	idx := r.Perm(len(xs))
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

func reqLabel(req serve.JobRequest) string {
	b, _ := json.Marshal(req)
	return string(b)
}
