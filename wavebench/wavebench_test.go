package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wavemin"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n     int
		ok    bool
		p, v  float64
		label string
	}{
		{n: 0, ok: false, label: "empty"},
		{n: 39, ok: false, label: "p75 has 9 beyond"},
		{n: 40, ok: true, p: 75, v: 30, label: "p75 has 10 beyond"},
		{n: 100, ok: true, p: 90, v: 90, label: "p95 has 5 beyond"},
		{n: 199, ok: true, p: 90, v: 180, label: "p95 has 9 beyond"},
		{n: 200, ok: true, p: 95, v: 190, label: "p95 has 10 beyond"},
		{n: 1000, ok: true, p: 99, v: 990, label: "p99 has 10 beyond"},
		{n: 10000, ok: true, p: 99.9, v: 9990, label: "p99.9 has 10 beyond"},
	}
	for _, c := range cases {
		p, v, ok := tail(ramp(c.n))
		if ok != c.ok || p != c.p || v != c.v {
			t.Errorf("%s (n=%d): tail = p%g %g %v, want p%g %g %v", c.label, c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

func TestStripRuntimeKeepsEveryOtherByte(t *testing.T) {
	res := wavemin.Result{AlgorithmUsed: "ClkWaveMin", NumBuffers: 3, Runtime: 123456789}
	res.After.PeakCurrent = 1.5
	withRuntime := mustMarshal(t, res)
	res.Runtime = 0
	zeroed := mustMarshal(t, res)
	if bytes.Equal(withRuntime, zeroed) {
		t.Fatal("test setup: Runtime did not change the bytes")
	}
	if got := stripRuntime(withRuntime); !bytes.Equal(got, zeroed) {
		t.Errorf("stripRuntime = %s, want %s", got, zeroed)
	}
	if got := stripRuntime(zeroed); !bytes.Equal(got, zeroed) {
		t.Errorf("stripRuntime changed already-canonical bytes: %s", got)
	}
	other := []byte(`{"NumBuffers":7,"AlgorithmUsed":"Runtime"}`)
	if got := stripRuntime(other); !bytes.Equal(got, other) {
		t.Errorf("stripRuntime touched bytes without a Runtime field: %s", got)
	}
}

func baseTree(t *testing.T) []byte {
	t.Helper()
	d, err := wavemin.Benchmark("s13207")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	base := baseTree(t)
	for _, w := range workloads {
		a, err := makeInputs(w, base, "tune", 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, base, "tune", 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() || !bytes.Equal(a.cold, b.cold) {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		c, _ := makeInputs(w, base, "tune", 8)
		h, _ := makeInputs(w, base, "heldout", 7)
		if c.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
		if h.digest() == a.digest() {
			t.Errorf("%s: the held-out split reproduced the tuning inputs", w.name)
		}
		// Every block is a permutation of the workload's class multiset.
		want := classCounts(w.block)
		for i := 0; i+len(w.block) <= len(a.schedule); i += len(w.block) {
			var got [numClasses]int
			for _, r := range a.schedule[i : i+len(w.block)] {
				got[r.class]++
			}
			if got != want {
				t.Fatalf("%s: block at %d has classes %v, want %v", w.name, i, got, want)
			}
		}
	}
}

func classCounts(cs []class) [numClasses]int {
	var out [numClasses]int
	for _, c := range cs {
		out[c]++
	}
	return out
}

func TestGateCountsFailures(t *testing.T) {
	ref := []byte(`{"After":{"PeakCurrent":1,"VDDNoise":0,"GndNoise":0,"WorstSkew":5},"Runtime":0}`)
	g := &gate{kappa: 20, cold: &reference{bytes: ref}, hitRaw: []byte(`{"After":{"WorstSkew":5},"Runtime":42}`)}
	done := jobView{JobID: "j-1", Status: "done"}
	ok := &response{req: request{class: classCold}, submitCode: http.StatusAccepted, view: done,
		result: []byte(`{"After":{"PeakCurrent":1,"VDDNoise":0,"GndNoise":0,"WorstSkew":5},"Runtime":977}`)}
	cases := []struct {
		name   string
		resp   *response
		reason string
	}{
		{"ok", ok, ""},
		{"429", &response{req: request{class: classCold}, submitCode: http.StatusTooManyRequests}, "http_429"},
		{"mismatch", &response{req: ok.req, submitCode: ok.submitCode, view: done,
			result: []byte(`{"After":{"PeakCurrent":2,"VDDNoise":0,"GndNoise":0,"WorstSkew":5},"Runtime":0}`)}, "mismatch"},
		{"cold reused zones", &response{req: ok.req, submitCode: ok.submitCode,
			view: jobView{JobID: "j-2", Status: "done", ZonesReused: 3}, result: ok.result}, "mismatch"},
		{"degraded", &response{req: ok.req, submitCode: ok.submitCode,
			view: jobView{JobID: "j-3", Status: "done", Degraded: true}, result: ok.result}, "mismatch"},
		{"expired", &response{req: ok.req, submitCode: ok.submitCode,
			view: jobView{JobID: "j-4", Status: "expired"}}, "mismatch"},
		{"hit not from cache", &response{req: request{class: classHit}, submitCode: http.StatusAccepted,
			view: done, result: g.hitRaw}, "mismatch"},
		{"hit bytes differ", &response{req: request{class: classHit}, submitCode: http.StatusOK,
			view: done, result: ref}, "mismatch"},
	}
	var tl tally
	for _, c := range cases {
		_, err := g.verify(c.resp)
		if (err == nil) != (c.reason == "") {
			t.Errorf("%s: verify error = %v", c.name, err)
		}
		tl.add(err)
	}
	if tl.attempted != len(cases) || tl.failed != len(cases)-1 {
		t.Errorf("tally %d/%d failed, want %d/%d", tl.failed, tl.attempted, len(cases)-1, len(cases))
	}
	if tl.reasons["http_429"] != 1 || tl.reasons["mismatch"] != len(cases)-2 {
		t.Errorf("reasons = %v", tl.reasons)
	}
}

func TestGateRejectsSkewAboveKappa(t *testing.T) {
	hot := []byte(`{"After":{"WorstSkew":25},"Runtime":0}`)
	g := &gate{kappa: 20, cold: &reference{bytes: hot}}
	_, err := g.verify(&response{req: request{class: classCold}, submitCode: http.StatusAccepted,
		view: jobView{JobID: "j-1", Status: "done"}, result: hot})
	if err == nil {
		t.Fatal("a result over κ passed the gate")
	}
}

func TestClientReportsRefusalAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":{"code":"queue_full"}}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	s := &service{url: ts.URL, client: ts.Client()}
	g := &gate{kappa: 20, cold: &reference{}}
	_, err := g.verify(s.do(request{class: classCold}, []byte(`{}`)))
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusTooManyRequests {
		t.Fatalf("refused submit verified as %v, want an HTTP 429 failure", err)
	}
}

func TestSummaryCarriesEveryMetric(t *testing.T) {
	r := newReport()
	r.set("b_ms", 2, "ms")
	r.set("a_s", 1, "s")
	r.note("printed_only", 3, "ms", "")
	sum := r.finish(0, 0)
	if !sum.Correct || sum.Attempted != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if _, printed := sum.Metrics["printed_only"]; printed || len(sum.Metrics) != 2 {
		t.Errorf("summary metrics = %v, want exactly a_s and b_ms", sum.Metrics)
	}
	r.set("broken", mean(nil), "ms")
	if r.finish(1, 0).Correct {
		t.Error("a metric without a value passed as correct")
	}
}

func TestSpeedScaleFollowsTheCalibration(t *testing.T) {
	c := &calibrator{works: make([]*calibWork, 2)}
	// Two processors, 1000 units in 300 ms: 0.6 ms a unit, the reference.
	ref := burstResult{units: 1000, wall: 300 * time.Millisecond}
	if s, unit := c.speedScale(ref, ref); math.Abs(s-1) > 1e-12 || unit != refUnit {
		t.Errorf("reference speed: scale %v, unit %v", s, unit)
	}
	// A machine at half speed completes half the units: times measured
	// on it are halved to read as reference times.
	slow := burstResult{units: 500, wall: 300 * time.Millisecond}
	if s, _ := c.speedScale(slow, slow); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("half speed: scale %v, want 0.5", s)
	}
	if s, _ := c.speedScale(ref, slow); math.Abs(s-0.75) > 1e-12 {
		t.Errorf("mixed bursts: scale %v, want 0.75 (1500 units in 600 ms pooled)", s)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
