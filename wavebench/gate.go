package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"

	"wavemin"
	"wavemin/internal/yield"
)

// runtimeField matches the one wall-clock field of a marshaled
// wavemin.Result. The in-process serving path keeps it; the dispatch
// path and the references zero it.
var runtimeField = regexp.MustCompile(`"Runtime":-?[0-9]+`)

// stripRuntime normalizes result bytes for comparison: Runtime becomes 0
// and every other byte is kept.
func stripRuntime(b []byte) []byte {
	return runtimeField.ReplaceAll(b, []byte(`"Runtime":0`))
}

// reference is the in-process answer to one tree: the canonical result
// bytes (Runtime zeroed) and the leaf → cell assignment the facade
// committed, which the traced replay must reproduce.
type reference struct {
	bytes      []byte
	result     wavemin.Result
	assignment map[int]string
}

// solveReference cold-solves a tree through the facade with the paper
// defaults, exactly what the service runs for a config-less request.
func solveReference(ctx context.Context, tree []byte) (*reference, error) {
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		return nil, err
	}
	res, err := d.Optimize(ctx, wavemin.Config{})
	if err != nil {
		return nil, err
	}
	res.Stats = nil
	res.Runtime = 0
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	ref := &reference{bytes: blob, result: *res, assignment: make(map[int]string)}
	for _, leaf := range d.Tree.Leaves() {
		ref.assignment[int(leaf)] = d.Tree.Node(leaf).Cell.Name
	}
	return ref, nil
}

// yieldParams mirrors the server's decoding of the benchmark's yield
// block: absent epsilon takes the default, κ the optimization default.
func yieldParams(seed int64) yield.Params {
	p := yield.Params{
		Samples:    yieldSamples,
		Candidates: yieldCandidates,
		Seed:       seed,
		Epsilon:    yield.DefaultEpsilon,
	}.WithDefaults()
	p.Kappa = wavemin.Config{}.WithDefaults().Kappa
	return p
}

// yieldReference computes a yield report in-process with a local
// runner; the service's fleet execution must return the same bytes.
func yieldReference(ctx context.Context, tree []byte, seed int64) ([]byte, error) {
	p := yieldParams(seed)
	cands, rejected, err := yield.GenerateCandidates(ctx, tree, wavemin.Config{}, nil, p)
	if err != nil {
		return nil, err
	}
	rep, err := yield.Run(ctx, cands, p, rejected, nil, &yield.LocalRunner{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// jobView is the subset of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	JobID         string `json:"jobId"`
	Status        string `json:"status"`
	CacheHit      bool   `json:"cacheHit"`
	SubmittedAt   string `json:"submittedAt"`
	StartedAt     string `json:"startedAt"`
	FinishedAt    string `json:"finishedAt"`
	Degraded      bool   `json:"degraded"`
	Error         string `json:"error"`
	ZonesReused   int    `json:"zonesReused"`
	ZonesResolved int    `json:"zonesResolved"`
}

// response is what a client observed for one request.
type response struct {
	req        request
	submitCode int // HTTP status of POST /v1/optimize
	view       jobView
	result     []byte // the result payload of GET /v1/jobs/{id}/result
	err        error  // transport or protocol failure
}

// gate holds the set-up references every response is checked against.
type gate struct {
	kappa  float64
	cold   *reference
	deltas []*reference
	hitRaw []byte   // the primed job's result bytes, which hits replay
	yields [][]byte // reference yield reports, per variant
}

// verdict carries the quality figures of a verified response.
type verdict struct {
	peakReduction float64 // cold results
	yieldPct      float64 // yield results: the winner's estimated yield
}

// verify checks one response against the references. Any transport
// error, non-2xx status, failed, expired or degraded job, byte mismatch
// or skew-bound violation is an error.
func (g *gate) verify(r *response) (verdict, error) {
	var v verdict
	if r.err != nil {
		return v, r.err
	}
	switch {
	case r.submitCode != http.StatusOK && r.submitCode != http.StatusAccepted:
		return v, &httpError{code: r.submitCode, what: r.req.class.String() + ": submit"}
	case r.view.Status != "done":
		return v, fmt.Errorf("%v: job %s ended %q: %s", r.req.class, r.view.JobID, r.view.Status, r.view.Error)
	case r.view.Degraded:
		return v, fmt.Errorf("%v: job %s degraded", r.req.class, r.view.JobID)
	case r.req.class == classHit && r.submitCode != http.StatusOK:
		return v, fmt.Errorf("hit: submit answered HTTP %d, want 200 from the cache", r.submitCode)
	}
	resultBytes := r.result
	switch r.req.class {
	case classCold:
		if r.view.ZonesReused != 0 {
			return v, fmt.Errorf("cold: job %s reused %d zones, want 0", r.view.JobID, r.view.ZonesReused)
		}
		if !bytes.Equal(stripRuntime(r.result), g.cold.bytes) {
			return v, fmt.Errorf("cold: job %s result differs from the reference", r.view.JobID)
		}
	case classHit:
		if !bytes.Equal(r.result, g.hitRaw) {
			return v, fmt.Errorf("hit: job %s bytes differ from the cached result", r.view.JobID)
		}
	case classEco:
		if !bytes.Equal(stripRuntime(r.result), g.deltas[r.req.variant].bytes) {
			return v, fmt.Errorf("eco: job %s result differs from a cold solve of delta %d", r.view.JobID, r.req.variant)
		}
	case classYield:
		if !bytes.Equal(r.result, g.yields[r.req.variant]) {
			return v, fmt.Errorf("yield: job %s report differs from the reference for seed variant %d", r.view.JobID, r.req.variant)
		}
		var rep yield.Report
		if err := json.Unmarshal(r.result, &rep); err != nil {
			return v, fmt.Errorf("yield: job %s: %v", r.view.JobID, err)
		}
		if rep.Winner < 0 || rep.Winner >= len(rep.Candidates) {
			return v, fmt.Errorf("yield: job %s winner %d out of range", r.view.JobID, rep.Winner)
		}
		v.yieldPct = 100 * rep.Candidates[rep.Winner].Yield
		resultBytes = rep.Result
	}
	var res wavemin.Result
	if err := json.Unmarshal(resultBytes, &res); err != nil {
		return v, fmt.Errorf("%v: job %s: %v", r.req.class, r.view.JobID, err)
	}
	if res.After.WorstSkew > g.kappa {
		return v, fmt.Errorf("%v: job %s skew %.3f ps exceeds κ=%g", r.req.class, r.view.JobID, res.After.WorstSkew, g.kappa)
	}
	v.peakReduction = res.PeakReduction()
	return v, nil
}

// tally is the failure accounting of a phase.
type tally struct {
	attempted, failed int
	reasons           map[string]int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	var he *httpError
	key := "mismatch"
	if errors.As(err, &he) {
		key = fmt.Sprintf("http_%d", he.code)
	}
	t.reasons[key]++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// httpError is a non-2xx answer on a poll or result fetch.
type httpError struct {
	code int
	what string
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: HTTP %d", e.what, e.code) }
