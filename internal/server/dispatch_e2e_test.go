package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavemin/internal/dispatch"
)

// startWorker runs one dispatch worker against the harness until the
// returned stop function is called (or the server drains).
func startWorker(t *testing.T, url, id string) (stop func()) {
	t.Helper()
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: url,
		ID:          id,
		PollWait:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(context.Background())
	}()
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		w.Kill()
		<-done
	}
}

// TestDispatchServerEndToEnd drives the full fleet path through the
// public API: a coordinator-mode server, two remote workers, a traced
// request — asserting completion, the stitched dispatch trace, cache
// replay, and a clean drain that releases the workers.
func TestDispatchServerEndToEnd(t *testing.T) {
	srv := mustNew(t, Options{
		Workers:        1,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
		Dispatch: &dispatch.Options{
			LeaseTTL:      2 * time.Second,
			SweepInterval: 100 * time.Millisecond,
			MaxAttempts:   3,
			LocalExec:     false, // force the remote path
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	stop1 := startWorker(t, ts.URL, "w1")
	defer stop1()
	stop2 := startWorker(t, ts.URL, "w2")
	defer stop2()
	h := &harness{t: t, srv: srv, ts: ts}

	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 12),
		"config": fastConfig(),
		"trace":  true,
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, resp)
	}
	id := resp["jobId"].(string)
	v := h.waitJob(id, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job status = %s (error %q), want done", v.Status, v.Error)
	}
	if v.AlgorithmUsed == "" {
		t.Error("job record missing algorithmUsed")
	}

	// The result must decode as a wavemin result with zero Runtime (the
	// dispatch path's canonical-bytes rule).
	code, rb := h.get("/v1/jobs/" + id + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, rb)
	}
	var rres struct {
		Result map[string]any `json:"result"`
	}
	if err := json.Unmarshal(rb, &rres); err != nil {
		t.Fatal(err)
	}
	if rt, ok := rres.Result["Runtime"].(float64); !ok || rt != 0 {
		t.Errorf("dispatched result Runtime = %v, want 0 (canonical bytes)", rres.Result["Runtime"])
	}

	// The trace is the coordinator's dispatch tree with the worker's
	// solver trace stitched underneath.
	code, tb := h.get("/v1/jobs/" + id + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", code, tb)
	}
	trace := string(tb)
	for _, want := range []string{`"path":"dispatch[0]"`, `"path":"dispatch[0]/attempt[0]"`, `dispatch[0]/attempt[0]/optimize[0]`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s", want)
		}
	}

	// An identical resubmission is a cache hit with byte-identical result.
	code, resp = h.post(body)
	if code != http.StatusOK || resp["cacheHit"] != true {
		t.Fatalf("resubmit: status %d, cacheHit %v; want 200 cached", code, resp["cacheHit"])
	}
	id2 := resp["jobId"].(string)
	_, rb2 := h.get("/v1/jobs/" + id2 + "/result")
	var rres2 struct {
		Result json.RawMessage `json:"result"`
	}
	var rres1 struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rb, &rres1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb2, &rres2); err != nil {
		t.Fatal(err)
	}
	if string(rres1.Result) != string(rres2.Result) {
		t.Error("cache replay bytes differ from the dispatched result")
	}

	// Drain: accepted work is done, so drain completes promptly and the
	// lease endpoint starts reporting draining, releasing worker loops.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestPlainServerResultBytesMatchExecuteSpec pins the one execution
// path: a plain server's stored result is exactly the canonical bytes
// dispatch.ExecuteSpec produces for the same spec, with no field removed
// (Runtime included) — so one content key maps to one byte string on
// every node of a fleet.
func TestPlainServerResultBytesMatchExecuteSpec(t *testing.T) {
	opts := Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute}
	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 12),
		"config": fastConfig(),
	})
	h := newHarness(t, opts)
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, resp)
	}
	id := jobID(t, resp)
	if v := h.waitJob(id, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job status = %s (error %q)", v.Status, v.Error)
	}
	_, got := h.resultBody(id)

	req, apiErr := decodeOptimizeRequest(body, opts.withDefaults())
	if apiErr != nil {
		t.Fatalf("decode: %+v", apiErr)
	}
	out, err := dispatch.ExecuteSpec(context.Background(), &dispatch.JobSpec{
		Tree: req.tree, Config: req.cfg, Modes: req.modes, Key: req.key,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, out.ResultJSON) {
		t.Errorf("plain server result differs from ExecuteSpec bytes:\nserver:      %s\nExecuteSpec: %s", got, out.ResultJSON)
	}
}

// TestDurableServerCountsLocalSolves pins the solver-run accounting on
// the durable path: a cold job executed by the local executor counts
// once, and a cache-hit resubmission does not count again.
func TestDurableServerCountsLocalSolves(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, DataDir: t.TempDir()})
	t.Cleanup(func() { _ = h.srv.Drain(context.Background()) })
	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 8),
		"config": fastConfig(),
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, resp)
	}
	if v := h.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job status = %s (error %q)", v.Status, v.Error)
	}
	if got := h.srv.MetricsSnapshot().SolverRuns; got != 1 {
		t.Fatalf("after one cold job: SolverRuns = %d, want 1", got)
	}
	code, resp = h.post(body)
	if code != http.StatusOK || resp["cacheHit"] != true {
		t.Fatalf("resubmit: status %d, cacheHit %v; want 200 cached", code, resp["cacheHit"])
	}
	if got := h.srv.MetricsSnapshot().SolverRuns; got != 1 {
		t.Fatalf("after a cache hit: SolverRuns = %d, want 1", got)
	}
}

// TestDispatchEndpointsOnlyOnFleetCoordinators pins the lease surface:
// a serve node — plain or durable — executes locally and mounts no
// /v1/dispatch/* endpoints; a server with Options.Dispatch does.
func TestDispatchEndpointsOnlyOnFleetCoordinators(t *testing.T) {
	leaseStatus := func(opts Options) int {
		h := newHarness(t, opts)
		t.Cleanup(func() { _ = h.srv.Drain(context.Background()) })
		resp, err := http.Post(h.ts.URL+"/v1/dispatch/lease", "application/json",
			strings.NewReader(`{"workerId":"w-probe","waitMs":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := leaseStatus(Options{}); got != http.StatusNotFound {
		t.Errorf("plain server: lease status %d, want 404", got)
	}
	if got := leaseStatus(Options{DataDir: t.TempDir()}); got != http.StatusNotFound {
		t.Errorf("durable server without Dispatch: lease status %d, want 404", got)
	}
	if got := leaseStatus(Options{Dispatch: &dispatch.Options{}}); got != http.StatusNoContent {
		t.Errorf("fleet coordinator with an empty queue: lease status %d, want 204", got)
	}
}
