// Package shard is the static-ring key-space partitioner behind the
// multi-coordinator serving tier: it decides, for every content key in
// the system, which coordinator owns it.
//
// Every cacheable artifact already travels under a portable sha256
// content hash — the whole-design Design.CacheKey, the per-zone
// wavemin-zonekey-v2 solution keys, and the castore entry names are all
// lowercase hex digests — so the partition is by key prefix: the first
// PrefixBits bits of the digest select one of 1<<PrefixBits buckets, and
// a versioned bucket→shard assignment table maps buckets onto shards.
// Because sha256 output is uniform, equal-sized bucket sets give each
// shard an equal slice of the key space without any coordination, and
// because the assignment is an explicit table (not `hash % n`), a later
// map version can move individual buckets between shards — rebalancing
// is a table edit plus a version bump, never a rehash of the world.
//
// The map is deliberately static per version: every node in a fleet must
// be started with (or gossip its way to) the same encoded map, and the
// routing layer rejects peer traffic whose map version disagrees — a
// fleet with skewed maps fails loudly with a structured error instead of
// silently writing keys to the wrong shard.
//
// Job identifiers route differently: a job is born on its owning shard
// (submissions are forwarded before admission), so the owner is encoded
// into the public job ID itself — "j-s<shard>-<seq>" — and any node can
// route GET /v1/jobs/{id} by decoding the ID, no key recomputation
// needed. DecodeJobID is strict: an ID that claims the sharded form but
// is malformed (overflow digits, path metacharacters, empty fields) is an
// error the server surfaces as a structured 400, never a panic or a
// wrong-shard lookup.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// MapFormat versions the encoded map syntax itself (the leading "v" of
// Encode). Bump PrefixBits/assignment semantics only together with this.
const (
	minPrefixBits = 1
	maxPrefixBits = 16
	// MaxShards bounds fleet size; 1024 coordinators is far past the
	// design point and keeps the assignment table small.
	MaxShards = 1024
	// MaxVersion bounds the partition epoch. Versions advance one step
	// per rebalance, so a real fleet never approaches it; a gossiped map
	// claiming a version beyond it is an overflow attempt, not a map.
	MaxVersion = 1 << 30
	// maxJobShardDigits bounds the shard field of a job ID: 4 digits
	// covers MaxShards with room, and anything longer is an overflow
	// attempt, not a real shard.
	maxJobShardDigits = 4
	// maxJobSeqDigits bounds the sequence field: 18 digits stays within
	// int64, so a hostile ID can never overflow the parse.
	maxJobSeqDigits = 18
)

// Map is one version of the key-space partition: 1<<PrefixBits prefix
// buckets assigned onto Shards coordinators. Construct with New (uniform
// round-robin assignment) or Decode; mutate only by building a new Map
// with a higher Version.
type Map struct {
	// Version identifies the partition epoch. Peer traffic carries it and
	// mismatches are rejected, so two map versions never mix silently.
	Version int `json:"version"`
	// PrefixBits is how many leading bits of the key digest select a
	// bucket (1..16); buckets = 1 << PrefixBits.
	PrefixBits int `json:"prefixBits"`
	// Shards is the fleet size; shard IDs are 0..Shards-1.
	Shards int `json:"shards"`
	// Assign maps bucket → owning shard; len(Assign) == 1<<PrefixBits.
	Assign []int `json:"assign"`
	// Replicas, when non-nil, maps bucket → reader shards: nodes that
	// hold a read-only copy of the bucket's cached artifacts and serve
	// them when the owner is unreachable. A replica set never contains
	// the bucket's owner, never repeats a shard, and may be empty. Nil
	// means no bucket has replicas (the pre-replica wire form).
	Replicas [][]int `json:"replicas,omitempty"`
}

// New builds a version'd map with the uniform round-robin assignment:
// bucket i belongs to shard i % shards.
func New(version, prefixBits, shards int) (*Map, error) {
	m := &Map{Version: version, PrefixBits: prefixBits, Shards: shards}
	if err := m.validateHeader(); err != nil {
		return nil, err
	}
	m.Assign = make([]int, 1<<prefixBits)
	for i := range m.Assign {
		m.Assign[i] = i % shards
	}
	return m, nil
}

// WithReplicas returns a copy of m (same version) in which every bucket
// has r replicas: the r shards following the bucket's owner in ring
// order. r must leave at least the owner outside the set (r < Shards);
// r == 0 clears all replica sets.
func (m *Map) WithReplicas(r int) (*Map, error) {
	if r < 0 || r >= m.Shards {
		return nil, fmt.Errorf("shard: %d replicas per bucket needs %d+ shards, map has %d", r, r+1, m.Shards)
	}
	out := m.Clone()
	if r == 0 {
		out.Replicas = nil
		return out, nil
	}
	out.Replicas = uniformReplicas(out.Assign, out.Shards, r)
	return out, nil
}

// uniformReplicas derives the ring-successor replica sets WithReplicas
// assigns: bucket b's readers are the r shards after its owner.
func uniformReplicas(assign []int, shards, r int) [][]int {
	out := make([][]int, len(assign))
	for b, owner := range assign {
		set := make([]int, r)
		for i := 0; i < r; i++ {
			set[i] = (owner + 1 + i) % shards
		}
		out[b] = set
	}
	return out
}

// Clone returns a deep copy of m, safe to mutate independently.
func (m *Map) Clone() *Map {
	out := &Map{Version: m.Version, PrefixBits: m.PrefixBits, Shards: m.Shards}
	out.Assign = append([]int(nil), m.Assign...)
	if m.Replicas != nil {
		out.Replicas = make([][]int, len(m.Replicas))
		for b, set := range m.Replicas {
			out.Replicas[b] = append([]int{}, set...)
		}
	}
	return out
}

func (m *Map) validateHeader() error {
	if m.Version < 1 {
		return fmt.Errorf("shard: map version %d, want >= 1", m.Version)
	}
	if m.Version > MaxVersion {
		return fmt.Errorf("shard: map version %d beyond %d (overflow)", m.Version, MaxVersion)
	}
	if m.PrefixBits < minPrefixBits || m.PrefixBits > maxPrefixBits {
		return fmt.Errorf("shard: prefix bits %d, want %d..%d", m.PrefixBits, minPrefixBits, maxPrefixBits)
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return fmt.Errorf("shard: %d shards, want 1..%d", m.Shards, MaxShards)
	}
	if m.Shards > 1<<m.PrefixBits {
		return fmt.Errorf("shard: %d shards exceed %d buckets (%d prefix bits)", m.Shards, 1<<m.PrefixBits, m.PrefixBits)
	}
	return nil
}

// Validate checks the whole map: header bounds, a full assignment table,
// every entry in range, and every shard owning at least one bucket (a
// shard with no buckets would accept traffic it can never own).
func (m *Map) Validate() error {
	if m == nil {
		return fmt.Errorf("shard: nil map")
	}
	if err := m.validateHeader(); err != nil {
		return err
	}
	if len(m.Assign) != 1<<m.PrefixBits {
		return fmt.Errorf("shard: assignment covers %d buckets, want %d", len(m.Assign), 1<<m.PrefixBits)
	}
	seen := make([]bool, m.Shards)
	for b, s := range m.Assign {
		if s < 0 || s >= m.Shards {
			return fmt.Errorf("shard: bucket %d assigned to shard %d, want 0..%d", b, s, m.Shards-1)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: shard %d owns no buckets", s)
		}
	}
	if m.Replicas != nil {
		if len(m.Replicas) != len(m.Assign) {
			return fmt.Errorf("shard: replica table covers %d buckets, want %d", len(m.Replicas), len(m.Assign))
		}
		for b, set := range m.Replicas {
			inSet := make([]bool, m.Shards)
			for _, s := range set {
				if s < 0 || s >= m.Shards {
					return fmt.Errorf("shard: bucket %d replica %d outside 0..%d", b, s, m.Shards-1)
				}
				if s == m.Assign[b] {
					return fmt.Errorf("shard: bucket %d lists its owner %d as a replica", b, s)
				}
				if inSet[s] {
					return fmt.Errorf("shard: bucket %d repeats replica %d", b, s)
				}
				inSet[s] = true
			}
		}
	}
	return nil
}

// ReplicasOf returns the reader shards of the bucket key hashes into —
// the failover set a router consults when the owner is unreachable. The
// returned slice is the map's own; callers must not mutate it.
func (m *Map) ReplicasOf(key string) ([]int, error) {
	if m == nil || len(m.Assign) != 1<<m.PrefixBits {
		return nil, fmt.Errorf("shard: map has no complete assignment table")
	}
	b, err := m.bucketOf(key)
	if err != nil {
		return nil, err
	}
	if m.Replicas == nil {
		return nil, nil
	}
	return m.Replicas[b], nil
}

// IsReplica reports whether shard is in the replica set of the bucket
// key hashes into — the check a node runs before accepting a pushed
// artifact it does not own. A bad key or an out-of-range shard is simply
// not a replica.
func (m *Map) IsReplica(key string, shard int) bool {
	set, err := m.ReplicasOf(key)
	if err != nil {
		return false
	}
	for _, s := range set {
		if s == shard {
			return true
		}
	}
	return false
}

// ShardOf maps a content key (a lowercase-hex digest — Design.CacheKey,
// a zone key, a castore name) to its owning shard. The key needs at
// least ceil(PrefixBits/4) hex characters; anything shorter, or any
// non-hex character in the prefix, is an error — a hostile key must be
// rejected, never silently bucketed.
func (m *Map) ShardOf(key string) (int, error) {
	if m == nil || len(m.Assign) != 1<<m.PrefixBits {
		return 0, fmt.Errorf("shard: map has no complete assignment table")
	}
	b, err := m.bucketOf(key)
	if err != nil {
		return 0, err
	}
	return m.Assign[b], nil
}

// BucketOf returns the prefix bucket key hashes into — what the handoff
// path uses to decide whether a cached artifact belongs to a bucket
// being drained. Same key rules as ShardOf.
func (m *Map) BucketOf(key string) (int, error) {
	if m == nil || len(m.Assign) != 1<<m.PrefixBits {
		return 0, fmt.Errorf("shard: map has no complete assignment table")
	}
	return m.bucketOf(key)
}

// bucketOf extracts the leading PrefixBits bits of the hex key.
func (m *Map) bucketOf(key string) (int, error) {
	nibbles := (m.PrefixBits + 3) / 4
	if len(key) < nibbles {
		return 0, fmt.Errorf("shard: key %q shorter than the %d-nibble prefix", key, nibbles)
	}
	v := 0
	for i := 0; i < nibbles; i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | int(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | int(c-'a'+10)
		default:
			// Uppercase hex included: canonical keys are lowercase, and a
			// case-folded alias would double-bucket the same content.
			return 0, fmt.Errorf("shard: key prefix has non-canonical character %q", c)
		}
	}
	return v >> (4*nibbles - m.PrefixBits), nil
}

// Encode renders the map in the flag-friendly form Decode parses:
//
//	v<version>:<prefixBits>:<shards>              round-robin assignment
//	v<version>:<prefixBits>:<shards>:<a0>,<a1>,…  explicit assignment
//
// Maps with replica sets append one more field:
//
//	:r*<k>             uniform — every bucket's readers are the k shards
//	                   after its owner in ring order (WithReplicas)
//	:r<s0>|<s1>|…      explicit — one comma-joined reader set per bucket
//
// The explicit tails are emitted only when the assignment differs from
// round-robin (or the replicas from uniform), so the common map stays
// short ("v1:8:3:r*1").
func (m *Map) Encode() string {
	head := fmt.Sprintf("v%d:%d:%d", m.Version, m.PrefixBits, m.Shards)
	rr := true
	for i, s := range m.Assign {
		if s != i%m.Shards {
			rr = false
			break
		}
	}
	if !rr {
		parts := make([]string, len(m.Assign))
		for i, s := range m.Assign {
			parts[i] = strconv.Itoa(s)
		}
		head += ":" + strings.Join(parts, ",")
	}
	if m.Replicas == nil {
		return head
	}
	return head + ":" + m.encodeReplicas()
}

func (m *Map) encodeReplicas() string {
	if k := len(m.Replicas[0]); k > 0 {
		uniform := true
		want := uniformReplicas(m.Assign, m.Shards, k)
		for b, set := range m.Replicas {
			if len(set) != k {
				uniform = false
				break
			}
			for i, s := range set {
				if want[b][i] != s {
					uniform = false
					break
				}
			}
			if !uniform {
				break
			}
		}
		if uniform {
			return fmt.Sprintf("r*%d", k)
		}
	}
	sets := make([]string, len(m.Replicas))
	for b, set := range m.Replicas {
		parts := make([]string, len(set))
		for i, s := range set {
			parts[i] = strconv.Itoa(s)
		}
		sets[b] = strings.Join(parts, ",")
	}
	return "r" + strings.Join(sets, "|")
}

// Decode parses an Encode'd map and validates it.
func Decode(s string) (*Map, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 3 || len(fields) > 5 {
		return nil, fmt.Errorf("shard: map %q: want v<ver>:<bits>:<shards>[:<assign>][:r<replicas>]", s)
	}
	if !strings.HasPrefix(fields[0], "v") {
		return nil, fmt.Errorf("shard: map %q: version field must start with 'v'", s)
	}
	ver, err := strconv.Atoi(fields[0][1:])
	if err != nil {
		return nil, fmt.Errorf("shard: map %q: version: %v", s, err)
	}
	bits, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("shard: map %q: prefix bits: %v", s, err)
	}
	shards, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, fmt.Errorf("shard: map %q: shards: %v", s, err)
	}
	var replicaField string
	assignField := ""
	switch rest := fields[3:]; len(rest) {
	case 0:
	case 1:
		if strings.HasPrefix(rest[0], "r") {
			replicaField = rest[0]
		} else {
			assignField = rest[0]
		}
	case 2:
		assignField = rest[0]
		if !strings.HasPrefix(rest[1], "r") {
			return nil, fmt.Errorf("shard: map %q: fifth field must be a replica spec (r...)", s)
		}
		replicaField = rest[1]
	}
	m := &Map{Version: ver, PrefixBits: bits, Shards: shards}
	if err := m.validateHeader(); err != nil {
		return nil, err
	}
	if assignField == "" {
		m.Assign = make([]int, 1<<bits)
		for i := range m.Assign {
			m.Assign[i] = i % shards
		}
	} else {
		parts := strings.Split(assignField, ",")
		m.Assign = make([]int, 0, len(parts))
		for i, p := range parts {
			a, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("shard: map %q: assignment[%d]: %v", s, i, err)
			}
			m.Assign = append(m.Assign, a)
		}
	}
	if replicaField != "" {
		if err := m.decodeReplicas(replicaField[1:]); err != nil {
			return nil, fmt.Errorf("shard: map %q: %w", s, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeReplicas parses the replica field (with its leading 'r' already
// stripped): "*<k>" uniform, or per-bucket "|"-separated sets. Bounds are
// checked while parsing so a hostile field cannot allocate past the
// map's own size.
func (m *Map) decodeReplicas(spec string) error {
	if k, ok := strings.CutPrefix(spec, "*"); ok {
		r, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("replicas: %v", err)
		}
		if r < 1 || r >= m.Shards {
			return fmt.Errorf("replicas: %d per bucket needs %d+ shards, map has %d", r, r+1, m.Shards)
		}
		m.Replicas = uniformReplicas(m.Assign, m.Shards, r)
		return nil
	}
	sets := strings.Split(spec, "|")
	if len(sets) != len(m.Assign) {
		return fmt.Errorf("replicas: %d sets for %d buckets", len(sets), len(m.Assign))
	}
	m.Replicas = make([][]int, len(sets))
	for b, set := range sets {
		if set == "" {
			m.Replicas[b] = []int{}
			continue
		}
		parts := strings.Split(set, ",")
		if len(parts) >= m.Shards {
			return fmt.Errorf("replicas: bucket %d lists %d readers, map has %d shards", b, len(parts), m.Shards)
		}
		out := make([]int, 0, len(parts))
		for _, p := range parts {
			r, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("replicas: bucket %d: %v", b, err)
			}
			out = append(out, r)
		}
		m.Replicas[b] = out
	}
	return nil
}

// --- job-ID routing --------------------------------------------------------

// EncodeJobID renders the public identifier of a job owned by shard:
// "j-s<shard>-<seq>", seq zero-padded to six digits to match the legacy
// single-node "j-%06d" width.
func EncodeJobID(shard int, seq int64) string {
	return fmt.Sprintf("j-s%d-%06d", shard, seq)
}

// DecodeJobID parses a public job ID.
//
//   - A well-formed sharded ID returns (shard, seq, true, nil).
//   - An ID without the "j-s" prefix returns sharded=false with no error:
//     it is a legacy single-node ID (or an unknown string) the caller
//     resolves against its local registry — at worst a structured 404.
//   - An ID that claims the sharded form but is malformed — empty or
//     oversized digit runs, non-digits, anything after the sequence —
//     returns an error. Overflow attempts and path metacharacters land
//     here, so a hostile ID can never parse into a forwardable route.
//
// The shard value is syntactic only; callers must still bound it by the
// live map's Shards before trusting it.
func DecodeJobID(id string) (shard int, seq int64, sharded bool, err error) {
	rest, ok := strings.CutPrefix(id, "j-s")
	if !ok {
		return 0, 0, false, nil
	}
	shardStr, seqStr, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, false, fmt.Errorf("shard: job id %q: want j-s<shard>-<seq>", id)
	}
	if l := len(shardStr); l == 0 || l > maxJobShardDigits {
		return 0, 0, false, fmt.Errorf("shard: job id %q: shard field must be 1..%d digits", id, maxJobShardDigits)
	}
	if l := len(seqStr); l == 0 || l > maxJobSeqDigits {
		return 0, 0, false, fmt.Errorf("shard: job id %q: sequence field must be 1..%d digits", id, maxJobSeqDigits)
	}
	for _, c := range shardStr + seqStr {
		if c < '0' || c > '9' {
			return 0, 0, false, fmt.Errorf("shard: job id %q: non-digit in shard/sequence field", id)
		}
	}
	shard, err = strconv.Atoi(shardStr)
	if err != nil {
		return 0, 0, false, fmt.Errorf("shard: job id %q: shard: %v", id, err)
	}
	seq, err = strconv.ParseInt(seqStr, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("shard: job id %q: sequence: %v", id, err)
	}
	return shard, seq, true, nil
}
