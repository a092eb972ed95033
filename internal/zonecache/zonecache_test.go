package zonecache

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func sol(zone [2]int, picks []int, expanded, frontier int) *Solution {
	return &Solution{Zone: zone, Picks: picks, Peak: 1.5, Expanded: expanded, Frontier: frontier}
}

func TestSolutionRoundTrip(t *testing.T) {
	want := sol([2]int{3, -1}, []int{0, 2, 1}, 40, 7)
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

// TestDecodeFailsClosed: any blob that is not exactly a current-version
// solution must come back (nil, error) — a cache miss, never a bad replay.
func TestDecodeFailsClosed(t *testing.T) {
	skewed := sol([2]int{0, 0}, []int{1}, 1, 1).Encode()
	skewed = bytes.Replace(skewed, []byte(`"v":1`), []byte(`"v":2`), 1)
	for name, blob := range map[string][]byte{
		"empty":        nil,
		"garbage":      []byte("not json"),
		"wrongShape":   []byte(`[1,2,3]`),
		"versionSkew":  skewed,
		"negativePick": []byte(`{"v":1,"zone":[0,0],"picks":[-1]}`),
	} {
		if s, err := Decode(blob); err == nil || s != nil {
			t.Errorf("%s: Decode = (%v, %v), want fail-closed", name, s, err)
		}
	}
}

func TestEncodeStampsVersion(t *testing.T) {
	var m map[string]any
	if err := json.Unmarshal(sol([2]int{0, 0}, nil, 0, 0).Encode(), &m); err != nil {
		t.Fatal(err)
	}
	if m["v"] != float64(solutionVersion) {
		t.Fatalf("encoded version %v, want %d", m["v"], solutionVersion)
	}
}

func seedMap(t *testing.T, sols ...*Solution) map[string][]byte {
	t.Helper()
	m := make(map[string][]byte, len(sols))
	for i, s := range sols {
		m[string(rune('a'+i))] = s.Encode()
	}
	return m
}

func TestSessionSeedLookupUsed(t *testing.T) {
	s := NewSession()
	seeds := seedMap(t, sol([2]int{1, 1}, []int{0, 1}, 10, 3))
	seeds["bad"] = []byte("junk") // malformed seeds are dropped, not fatal
	s.Seed(seeds)

	if _, ok := s.Lookup("bad"); ok {
		t.Fatal("malformed seed was served")
	}
	got, ok := s.Lookup("a")
	if !ok || !reflect.DeepEqual(got.Picks, []int{0, 1}) {
		t.Fatalf("Lookup(a) = %+v, %v", got, ok)
	}
	fresh := sol([2]int{2, 2}, []int{4}, 20, 5)
	s.Store("f", fresh)

	used := s.Used()
	if len(used) != 2 {
		t.Fatalf("Used has %d entries, want 2 (replayed + stored): %v", len(used), used)
	}
	if _, ok := used["a"]; !ok {
		t.Fatal("replayed seed missing from Used")
	}
	if dec, err := Decode(used["f"]); err != nil || dec.Picks[0] != 4 {
		t.Fatalf("stored solution corrupt in Used: %+v, %v", dec, err)
	}
}

// TestSessionWarmHints: seeds index capacity hints by spatial zone, and
// the hint is the max over every seed for that zone — hints pre-size
// arenas, so under-reporting wastes speed while the max is always safe.
func TestSessionWarmHints(t *testing.T) {
	s := NewSession()
	s.Seed(map[string][]byte{
		"a": sol([2]int{1, 2}, []int{0}, 10, 3).Encode(),
		"b": sol([2]int{1, 2}, []int{0}, 25, 2).Encode(),
		"c": sol([2]int{9, 9}, []int{0}, 7, 7).Encode(),
	})
	labels, frontier, ok := s.Warm([2]int{1, 2})
	if !ok || labels != 25 || frontier != 3 {
		t.Fatalf("Warm = %d, %d, %v; want max (25, 3)", labels, frontier, ok)
	}
	if _, _, ok := s.Warm([2]int{0, 0}); ok {
		t.Fatal("Warm hit for an unseeded zone")
	}
}

// TestNilSessionSafe: a nil *Session always misses and swallows writes,
// so non-ECO solver paths pay no branches.
func TestNilSessionSafe(t *testing.T) {
	var s *Session
	s.Seed(map[string][]byte{"k": nil})
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("nil session hit")
	}
	s.Store("k", sol([2]int{0, 0}, nil, 0, 0))
	if _, _, ok := s.Warm([2]int{0, 0}); ok {
		t.Fatal("nil session warm hit")
	}
	if u := s.Used(); u != nil {
		t.Fatalf("nil session Used = %v", u)
	}
}
