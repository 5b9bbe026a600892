// Package router is the federation front tier: a consistent-hash ring for
// tenant→shard placement with bounded loads, a per-shard health prober,
// and an HTTP proxy that forwards jobs to the tenant's home dwsd shard and
// spills 429-refused work to healthy siblings under a bounded budget.
//
// Placement is sticky by tenant, not by job: every job of a tenant lands
// on the same shard (spill-over aside), so each shard's WFQ admission and
// QoS arbiter see complete tenants and their per-shard fairness semantics
// carry over to the federation unchanged (DESIGN.md §11).
//
// The router speaks HTTP/1.1 to its shards itself (client.go): a spill
// hop is a steal that pays a latency, and net/http's Transport made the
// router half of a routed null job, handing every call to a write and a
// read goroutine and building a request, a response and their header
// maps. Each shard has one client that writes a request as one buffer on
// a pooled keep-alive connection and reads the answer on the calling
// goroutine. Retry rule: a job is offered to one shard at most twice, the
// second time only when a reused connection ends before the first answer
// byte, which is how a connection the shard closed while idle shows. Any
// later failure is unreachable: the breaker steps and the job spills. A
// shard whose handler dies without answering on a reused connection
// therefore runs the job once more. HTTP_PROXY and the other proxy
// variables are not consulted.
package router

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Ring is a consistent-hash ring with bounded loads (the
// ceil(c·keys/shards) capacity rule): shards project Replicas virtual
// points onto a 64-bit circle, a key walks clockwise from its own hash,
// and Assign skips shards already at capacity so no shard holds more than
// LoadFactor times its fair share of assigned keys.
//
// Determinism: points derive only from FNV-64a of "shard#i" strings and
// keys only from FNV-64a of the key — no map iteration, no process state —
// so any two processes that Add the same shard set (in any order) agree on
// every Preference walk.
//
// Ring is not safe for concurrent use; the Router serializes access.
type Ring struct {
	replicas   int
	loadFactor float64
	points     []ringPoint
	shards     []string
	load       map[string]int // keys currently assigned per shard
	assigned   map[string]string
}

type ringPoint struct {
	hash  uint64
	shard string
}

// DefaultReplicas is the virtual-node count per shard; 128 keeps the
// max/mean point-arc imbalance small at single-digit shard counts.
const DefaultReplicas = 128

// DefaultLoadFactor is the bounded-load factor c: no shard holds more than
// ceil(c · keys/shards) assigned keys.
const DefaultLoadFactor = 1.25

// NewRing builds an empty ring. replicas ≤ 0 and loadFactor ≤ 1 take the
// defaults.
func NewRing(replicas int, loadFactor float64) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if loadFactor <= 1 {
		loadFactor = DefaultLoadFactor
	}
	return &Ring{
		replicas:   replicas,
		loadFactor: loadFactor,
		load:       map[string]int{},
		assigned:   map[string]string{},
	}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV of short, similar strings ("s2#0", "s2#1", …) barely diffuses:
	// each shard's vnodes would cluster on one arc and every key would
	// walk the same order. The splitmix64 finalizer avalanches the bits —
	// still pure and process-independent.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add projects the shard's virtual points onto the ring. Adding a shard
// twice is a no-op. Existing assignments are not rebalanced: only keys
// whose walk now meets the new shard first move on re-assignment, which is
// what keeps movement under ~1/N on join.
func (r *Ring) Add(shard string) {
	for _, s := range r.shards {
		if s == shard {
			return
		}
	}
	r.shards = append(r.shards, shard)
	sort.Strings(r.shards)
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", shard, i)), shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Remove takes the shard's points off the ring and forgets its
// assignments.
func (r *Ring) Remove(shard string) {
	keep := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			keep = append(keep, p)
		}
	}
	r.points = keep
	for i, s := range r.shards {
		if s == shard {
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
	delete(r.load, shard)
	for k, s := range r.assigned {
		if s == shard {
			delete(r.assigned, k)
		}
	}
}

// Shards returns the member shards in sorted order.
func (r *Ring) Shards() []string {
	return append([]string(nil), r.shards...)
}

// Preference returns every shard in the key's clockwise walk order —
// the first entry is the unbounded home, the rest are the spill-over
// sequence. Empty on an empty ring.
func (r *Ring) Preference(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(k int) bool { return r.points[k].hash >= h })
	seen := map[string]bool{}
	order := make([]string, 0, len(r.shards))
	for n := 0; n < len(r.points) && len(order) < len(r.shards); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			order = append(order, p.shard)
		}
	}
	return order
}

// Home returns the key's unbounded home shard ("" on an empty ring).
func (r *Ring) Home(key string) string {
	if pref := r.Preference(key); len(pref) > 0 {
		return pref[0]
	}
	return ""
}

// capacity is the bounded-load ceiling with n+1 total keys (counting the
// one being placed).
func (r *Ring) capacity() int {
	if len(r.shards) == 0 {
		return 0
	}
	return int(math.Ceil(r.loadFactor * float64(len(r.assigned)+1) / float64(len(r.shards))))
}

// Assign places the key on the first shard in its walk with spare
// bounded-load capacity and records the assignment. Re-assigning a known
// key returns its existing shard (stickiness). Returns "" on an empty
// ring.
func (r *Ring) Assign(key string) string {
	if s, ok := r.assigned[key]; ok {
		return s
	}
	if len(r.points) == 0 {
		return ""
	}
	cap := r.capacity()
	var home string
	for _, s := range r.Preference(key) {
		if r.load[s] < cap {
			home = s
			break
		}
	}
	if home == "" {
		home = r.Preference(key)[0] // every shard at the ceiling: degenerate, take the walk head
	}
	r.load[home]++
	r.assigned[key] = home
	return home
}

// Walk is the key's spill walk: its bounded-load home (assigned as Assign
// does), then the rest of its preference order. The live router and the
// simulated federation both order a tenant's shards by it. Empty on an
// empty ring.
func (r *Ring) Walk(key string) []string {
	home := r.Assign(key)
	if home == "" {
		return nil
	}
	walk := append(make([]string, 0, len(r.shards)), home)
	for _, s := range r.Preference(key) {
		if s != home {
			walk = append(walk, s)
		}
	}
	return walk
}

// Release forgets the key's assignment (tenant deletion).
func (r *Ring) Release(key string) {
	s, ok := r.assigned[key]
	if !ok {
		return
	}
	delete(r.assigned, key)
	if r.load[s] > 0 {
		r.load[s]--
	}
}

// Load reports the shard's assigned-key count.
func (r *Ring) Load(shard string) int { return r.load[shard] }

// Assigned reports the total assigned-key count.
func (r *Ring) Assigned() int { return len(r.assigned) }
