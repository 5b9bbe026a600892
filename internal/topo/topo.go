// Package topo describes the socket (LLC-sharing) topology of the core
// slots the scheduler manages. A Topology maps each core index to a
// socket id and lists the cores of each socket; it is the single input
// the arbiter's placement pass, the runtime's two-phase victim order,
// and schedcheck's placed-block invariants all share, so the three can
// never disagree about where a socket boundary lies.
//
// Topologies come from three constructors:
//
//   - Flat(k): one socket holding every core — locality-free, the exact
//     behaviour of the pre-topology stack. Every layer treats a flat
//     topology as the degenerate anchor: placement reduces to the
//     contiguous prefix-sum split and victim selection to a single
//     uniform phase.
//   - Uniform(k, socketSize): cores [0,socketSize) form socket 0,
//     [socketSize,2·socketSize) socket 1, and so on — the simulator's
//     LLC model (sim.Config.SocketSize) expressed as a Topology. A
//     trailing remainder socket is allowed and simply smaller.
//   - Detect(k): the live host's sockets read from sysfs
//     (cpu*/topology/physical_package_id), falling back to Flat when
//     the files are absent (containers, non-Linux) or describe fewer
//     CPUs than the runtime needs.
package topo

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Topology is an immutable socket map over k core slots. The zero value
// is not valid; use Flat, Uniform, or Detect.
type Topology struct {
	k        int
	socketOf []int   // core index -> socket id, len k
	sockets  [][]int // socket id -> ascending core indices
}

// K returns the number of core slots the topology covers.
func (t *Topology) K() int { return t.k }

// NumSockets returns the number of sockets.
func (t *Topology) NumSockets() int { return len(t.sockets) }

// SocketOf returns the socket id of core c.
func (t *Topology) SocketOf(c int) int { return t.socketOf[c] }

// Socket returns the ascending core indices of socket s. The returned
// slice is shared — callers must not mutate it.
func (t *Topology) Socket(s int) []int { return t.sockets[s] }

// Flat reports whether the topology has a single socket (or no cores at
// all), i.e. locality carries no information.
func (t *Topology) Flat() bool { return len(t.sockets) <= 1 }

// String renders the socket map compactly, e.g. "topo{k=6 sockets=[0-1 2-3 4-5]}".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo{k=%d sockets=[", t.k)
	for s, cores := range t.sockets {
		if s > 0 {
			b.WriteByte(' ')
		}
		if n := len(cores); n > 0 && cores[n-1]-cores[0] == n-1 {
			fmt.Fprintf(&b, "%d-%d", cores[0], cores[n-1])
		} else {
			fmt.Fprintf(&b, "%v", cores)
		}
	}
	b.WriteString("]}")
	return b.String()
}

// Flat returns the single-socket topology over k cores: the degenerate
// map under which every topology-aware layer behaves bit-identically to
// the flat-index stack.
func Flat(k int) *Topology {
	return fromSocketOf(k, make([]int, k))
}

// Uniform returns the topology where each run of socketSize consecutive
// core indices shares a socket — the simulator's LLC model. socketSize
// <= 0 or >= k yields Flat(k); a remainder socket at the top is allowed.
func Uniform(k, socketSize int) *Topology {
	if socketSize <= 0 || socketSize >= k {
		return Flat(k)
	}
	so := make([]int, k)
	for c := range so {
		so[c] = c / socketSize
	}
	return fromSocketOf(k, so)
}

// Detect reads the host's socket map for core slots [0,k) from the
// Linux sysfs topology tree. Any failure — missing tree (non-Linux,
// restricted container), fewer described CPUs than k, unparsable ids —
// degrades to Flat(k): locality becomes a no-op rather than an error.
func Detect(k int) *Topology {
	return DetectAt("/sys/devices/system/cpu", k)
}

// DetectAt is Detect against an alternate sysfs root, exposed for tests.
func DetectAt(root string, k int) *Topology {
	if k <= 0 {
		return Flat(k)
	}
	pkg := make([]int, k)
	for c := 0; c < k; c++ {
		b, err := os.ReadFile(fmt.Sprintf("%s/cpu%d/topology/physical_package_id", root, c))
		if err != nil {
			return Flat(k)
		}
		id, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil || id < 0 {
			return Flat(k)
		}
		pkg[c] = id
	}
	// Renumber package ids densely in order of first appearance so socket
	// ids are always 0..n-1 regardless of how the firmware numbers them.
	seen := map[int]int{}
	so := make([]int, k)
	for c, id := range pkg {
		s, ok := seen[id]
		if !ok {
			s = len(seen)
			seen[id] = s
		}
		so[c] = s
	}
	return fromSocketOf(k, so)
}

func fromSocketOf(k int, socketOf []int) *Topology {
	n := 0
	for _, s := range socketOf {
		if s < 0 {
			panic("topo: negative socket id")
		}
		if s+1 > n {
			n = s + 1
		}
	}
	t := &Topology{k: k, socketOf: socketOf, sockets: make([][]int, n)}
	for c, s := range socketOf {
		t.sockets[s] = append(t.sockets[s], c)
	}
	for _, cores := range t.sockets {
		sort.Ints(cores)
	}
	return t
}
