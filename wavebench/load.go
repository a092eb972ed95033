package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wavemin"
	"wavemin/internal/dispatch"
	"wavemin/internal/server"
)

// env is one set-up service instance with its inputs and references.
type env struct {
	w   workload
	in  *inputs
	g   *gate
	b   *bodies
	svc *service
	// next is the schedule cursor every client draws from.
	next atomic.Int64
	// sent counts the requests of each class sent so far; a traced phase
	// traces every second one of each class.
	sent [numClasses]atomic.Int64
}

// setup builds everything a timed phase needs: the circuit's tree, the
// seeded inputs, the in-process references, the service (and workers),
// and, on eco-mix, the primed base job whose result the hits replay and
// whose zones the deltas chain off.
func setup(ctx context.Context, w workload, split string, seed int64, tmpRoot string) (*env, error) {
	d, err := wavemin.Benchmark(w.circuit)
	if err != nil {
		return nil, err
	}
	var base bytes.Buffer
	if err := d.SaveTree(&base); err != nil {
		return nil, err
	}
	in, err := makeInputs(w, base.Bytes(), split, seed)
	if err != nil {
		return nil, err
	}
	g := &gate{kappa: wavemin.Config{}.WithDefaults().Kappa}
	if g.cold, err = solveReference(ctx, in.cold); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for i, t := range in.deltas {
		ref, err := solveReference(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("delta %d reference: %w", i, err)
		}
		g.deltas = append(g.deltas, ref)
	}
	for _, s := range in.yieldSeeds {
		rep, err := yieldReference(ctx, in.cold, s)
		if err != nil {
			return nil, fmt.Errorf("yield reference: %w", err)
		}
		g.yields = append(g.yields, rep)
	}
	svc, err := startService(w, tmpRoot)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, in: in, g: g, svc: svc}
	baseJobID, err := e.prime()
	if err != nil {
		svc.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	if e.b, err = makeBodies(in, baseJobID); err != nil {
		svc.close()
		return nil, err
	}
	return e, nil
}

// prime sends one cold solve before the timed phase. On eco-mix it is
// cached (no noCache) and becomes the ECO base; on the fleet it proves
// the workers are leasing. Its result must match the reference.
func (e *env) prime() (string, error) {
	if !e.w.eco && !e.w.fleet {
		return "", nil
	}
	body, err := json.Marshal(wireBody{Tree: e.in.cold, NoCache: !e.w.eco})
	if err != nil {
		return "", err
	}
	r := e.svc.do(request{class: classCold}, body)
	if r.err == nil && r.submitCode != http.StatusAccepted {
		return "", fmt.Errorf("submit answered HTTP %d", r.submitCode)
	}
	if _, err := e.g.verify(r); err != nil {
		return "", err
	}
	e.g.hitRaw = r.result
	return r.view.JobID, nil
}

// sample is one verified request of a timed phase.
type sample struct {
	class   class
	traced  bool
	latency time.Duration
	view    jobView
	verdict verdict
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	samples        []sample
	tally          tally
	elapsed        time.Duration
	proc0, proc1   procSample
	srv0, srv1     server.Metrics
	coord0, coord1 dispatch.Metrics
}

func (e *env) coordMetrics() dispatch.Metrics {
	if c := e.svc.srv.Coordinator(); c != nil {
		return c.MetricsSnapshot()
	}
	return dispatch.Metrics{}
}

// run drives the workload's clients closed-loop for dur: each client
// takes the next schedule entry, sends it, waits for its result, checks
// it, and repeats until the deadline. Requests in flight at the deadline
// finish and count; the phase ends when the last one does. With
// interleave, every second request of each class, starting with the
// first, asks for a service trace, so traced and untraced requests share
// the phase and any drift of the machine's speed.
func (e *env) run(dur time.Duration, interleave bool, sp *spans, parent int) *phase {
	p := &phase{srv0: e.svc.srv.MetricsSnapshot(), coord0: e.coordMetrics(), proc0: sampleProc()}
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	last := start
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := e.in.schedule[int(e.next.Add(1)-1)%len(e.in.schedule)]
				traced := interleave && e.sent[r.class].Add(1)%2 == 1
				id := sp.start("request."+r.class.String(), parent)
				t0 := time.Now()
				resp := e.svc.do(r, e.b.get(r, traced))
				end := time.Now()
				sp.end(id)
				v, err := e.g.verify(resp)
				mu.Lock()
				p.tally.add(err)
				if err == nil {
					p.samples = append(p.samples, sample{class: r.class, traced: traced, latency: end.Sub(t0), view: resp.view, verdict: v})
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = last.Sub(start)
	p.proc1 = sampleProc()
	p.srv1 = e.svc.srv.MetricsSnapshot()
	p.coord1 = e.coordMetrics()
	return p
}

// checkInto records a phase's failures on r: failed requests, and
// server-side accounting that does not match the requests sent.
func (p *phase) checkInto(r *report, e *env) {
	if err := p.checkCounters(e); err != nil {
		r.fail("%v", err)
	}
	if p.tally.firstErr != nil {
		r.fail("%d/%d requests failed %v; first: %v", p.tally.failed, p.tally.attempted, p.tally.reasons, p.tally.firstErr)
	}
}

// checkCounters asserts the server-side accounting of a phase: nothing
// was rejected by the queue, and the solver ran exactly once per cold and
// ECO request on the in-process path, or once per yield candidate
// (dispatched solves run on workers, which the server does not count).
func (p *phase) checkCounters(e *env) error {
	if d := p.srv1.QueueStats.Rejected - p.srv0.QueueStats.Rejected; d != 0 {
		return fmt.Errorf("jobq rejected %d submissions", d)
	}
	var cold, eco, yld int64
	for _, s := range p.samples {
		switch s.class {
		case classCold:
			cold++
		case classEco:
			eco++
		case classYield:
			yld++
		}
	}
	want := eco + yld*yieldCandidates
	if !e.w.fleet {
		want += cold
	}
	if got := p.srv1.SolverRuns - p.srv0.SolverRuns; got != want {
		return fmt.Errorf("server solver runs %d, want %d (cold %d, eco %d, yield %d)", got, want, cold, eco, yld)
	}
	return nil
}

// latencies returns the latencies (ms) of the samples keep accepts.
func (p *phase) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if keep(s) {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}

func (p *phase) jobs() int { return len(p.samples) }

// setupTimed runs setup n times and keeps the last instance, tearing the
// others down; it returns the set-up wall times. Every repetition must
// compute the same reference bytes.
func setupTimed(ctx context.Context, n int, w workload, split string, seed int64, tmpRoot string) (*env, []float64, error) {
	var e *env
	var times []float64
	for i := 0; i < n; i++ {
		var prevRef []byte
		if e != nil {
			prevRef = e.g.cold.bytes
			if err := e.svc.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, split, seed, tmpRoot); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if prevRef != nil && !bytes.Equal(prevRef, e.g.cold.bytes) {
			e.svc.close()
			return nil, nil, fmt.Errorf("set-up %d computed different reference bytes than set-up %d", i+1, i)
		}
	}
	return e, times, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wavebench: "+format+"\n", args...)
}
