package arbiter

import (
	"math/rand"
	"slices"
	"testing"

	"dws/internal/coretable"
	"dws/internal/topo"
)

func allCores(k int) []int {
	pool := make([]int, k)
	for c := range pool {
		pool[c] = c
	}
	return pool
}

// drawPass draws one pass of o and returns it.
func drawPass(o *Order, rng *rand.Rand) []int {
	var pass []int
	for {
		pass = append(pass, o.Next(rng))
		if o.PassDone() {
			return pass
		}
	}
}

// TestOrder pins the victim order's contract: the layout, local-first
// passes that probe each victim once, steal-back, the backoff's arming
// and draining, and the flat degeneracy.
func TestOrder(t *testing.T) {
	two := topo.Uniform(8, 4)    // sockets {0-3} {4-7}
	three := topo.Uniform(12, 4) // sockets {0-3} {4-7} {8-11}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, rng *rand.Rand)
	}{
		{"layout same socket first then remote sockets ascending", func(t *testing.T, rng *rand.Rand) {
			o := NewOrder(three, false, allCores(12), 5)
			want := []int{4, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11}
			if got := o.Victims(); !slices.Equal(got, want) || o.nLocal != 3 {
				t.Fatalf("layout %v (nLocal %d), want %v (3)", got, o.nLocal, want)
			}
		}},
		{"layout EP pool is the home cores", func(t *testing.T, rng *rand.Rand) {
			o := NewOrder(two, false, []int{2, 3, 4, 5}, 3)
			if got, want := o.Victims(), []int{2, 4, 5}; !slices.Equal(got, want) || o.nLocal != 1 {
				t.Fatalf("layout %v (nLocal %d), want %v (1)", got, o.nLocal, want)
			}
		}},
		{"full pass is local first and probes each victim once", func(t *testing.T, rng *rand.Rand) {
			for w := 0; w < 8; w++ {
				o := NewOrder(two, false, allCores(8), w)
				for trial := 0; trial < 50; trial++ {
					pass := drawPass(&o, rng)
					o.Stole() // keep every pass full
					if len(pass) != 7 || slices.Contains(pass, w) {
						t.Fatalf("worker %d: pass %v, want the 7 other cores", w, pass)
					}
					for i, v := range pass {
						if local := two.SocketOf(v) == two.SocketOf(w); local != (i < 3) {
							t.Fatalf("worker %d: pass %v breaks the local-first order at %d", w, pass, i)
						}
					}
					s := slices.Clone(pass)
					slices.Sort(s)
					if len(slices.Compact(s)) != 7 {
						t.Fatalf("worker %d: pass %v repeats a victim", w, pass)
					}
				}
			}
		}},
		{"steal-back leads the remote segment once", func(t *testing.T, rng *rand.Rand) {
			o := NewOrder(three, false, allCores(12), 0)
			o.Robbed(2)
			pass := drawPass(&o, rng)
			for i := 3; i < 7; i++ {
				if three.SocketOf(pass[i]) != 2 {
					t.Fatalf("pass %v: remote position %d not on the robbing socket 2", pass, i-3)
				}
			}
			if o.robbed != -1 {
				t.Fatalf("steal-back bias not consumed: robbed = %d", o.robbed)
			}
		}},
		{"backoff arms after a fruitless full pass and drains", func(t *testing.T, rng *rand.Rand) {
			o := NewOrder(two, false, allCores(8), 0)
			lens := []int{}
			for i := 0; i < 5; i++ {
				lens = append(lens, len(drawPass(&o, rng)))
			}
			if want := []int{7, 3, 3, 7, 3}; !slices.Equal(lens, want) {
				t.Fatalf("pass lengths %v, want %v", lens, want)
			}
			// A steal in the full pass keeps the next one full.
			o = NewOrder(two, false, allCores(8), 0)
			drawPass(&o, rng)
			o.Stole()
			if n := len(drawPass(&o, rng)); n != 7 {
				t.Fatalf("pass after a successful full pass has %d victims, want 7", n)
			}
		}},
		{"flat is one shuffled cycle without backoff", func(t *testing.T, rng *rand.Rand) {
			for _, flat := range []struct {
				tp   *topo.Topology
				flag bool
			}{{two, true}, {topo.Flat(8), false}} {
				o := NewOrder(flat.tp, flat.flag, allCores(8), 2)
				ref := rand.New(rand.NewSource(7))
				cycle := []int{0, 1, 3, 4, 5, 6, 7}
				rng := rand.New(rand.NewSource(7))
				for trial := 0; trial < 20; trial++ {
					ref.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
					if pass := drawPass(&o, rng); !slices.Equal(pass, cycle) {
						t.Fatalf("trial %d: pass %v, want the shuffled cycle %v", trial, pass, cycle)
					}
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, rand.New(rand.NewSource(1))) })
	}
}

func TestParkRule(t *testing.T) {
	for _, c := range []struct{ failed, tSleep, toPark int }{
		{0, 0, 1}, {0, 4, 5}, {4, 4, 1}, {5, 4, 1}, {9, 4, 1},
	} {
		if got := ToPark(c.failed, c.tSleep); got != c.toPark {
			t.Errorf("ToPark(%d, %d) = %d, want %d", c.failed, c.tSleep, got, c.toPark)
		}
		if got, want := Park(c.failed, c.tSleep), c.failed > c.tSleep; got != want {
			t.Errorf("Park(%d, %d) = %v, want %v", c.failed, c.tSleep, got, want)
		}
		if !Park(c.failed+c.toPark, c.tSleep) || (c.toPark > 1 && Park(c.failed+c.toPark-1, c.tSleep)) {
			t.Errorf("ToPark(%d, %d) = %d is not the distance to Park", c.failed, c.tSleep, c.toPark)
		}
	}
	for _, c := range []struct {
		others  int
		running bool
		want    bool
	}{{0, true, false}, {1, true, true}, {0, false, true}, {3, false, true}} {
		if got := MaySleep(c.others, c.running); got != c.want {
			t.Errorf("MaySleep(%d, %v) = %v, want %v", c.others, c.running, got, c.want)
		}
	}
}

// refOrder is the simulator's victim order as it stood before Order,
// transcribed: buildVictimSets's layout, and nextVictim/beginPass's
// phased shuffled cycle over victim indices.
type refOrder struct {
	victims, sockets []int
	order            []int
	orderPos, nLocal int
	passFull         bool
	passSteal        bool
	remoteSkip       int
	robbedFrom       int
}

func newRefOrder(t *topo.Topology, noLocality bool, pool []int, self int) *refOrder {
	r := &refOrder{robbedFrom: -1}
	own := t.SocketOf(self)
	if noLocality || t.Flat() {
		for _, v := range pool {
			if v != self {
				r.victims = append(r.victims, v)
			}
		}
		r.nLocal = len(r.victims)
	} else {
		for _, v := range pool {
			if v != self && t.SocketOf(v) == own {
				r.victims = append(r.victims, v)
			}
		}
		r.nLocal = len(r.victims)
		for s := 0; s < t.NumSockets(); s++ {
			if s == own {
				continue
			}
			for _, v := range pool {
				if t.SocketOf(v) == s {
					r.victims = append(r.victims, v)
				}
			}
		}
	}
	for _, v := range r.victims {
		r.sockets = append(r.sockets, t.SocketOf(v))
	}
	return r
}

func (r *refOrder) next(rng *rand.Rand) int {
	if len(r.order) != len(r.victims) {
		r.order = make([]int, len(r.victims))
		for i := range r.order {
			r.order[i] = i
		}
		r.orderPos = len(r.victims)
		r.passFull = true
		r.passSteal = true
	}
	limit := len(r.order)
	if !r.passFull {
		limit = r.nLocal
	}
	if r.orderPos >= limit {
		r.beginPass(rng)
	}
	v := r.victims[r.order[r.orderPos]]
	r.orderPos++
	return v
}

func (r *refOrder) beginPass(rng *rand.Rand) {
	n := len(r.order)
	nl := r.nLocal
	if nl > 0 && nl < n {
		if r.passFull && !r.passSteal {
			r.remoteSkip = 2 // the parent's remoteStealBackoff
		} else if !r.passFull && r.remoteSkip > 0 {
			r.remoteSkip--
		}
	}
	r.passSteal = false
	r.passFull = r.remoteSkip == 0 || nl == 0 || nl >= n
	r.orderPos = 0
	rng.Shuffle(nl, func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
	if nl >= n || !r.passFull {
		return
	}
	rng.Shuffle(n-nl, func(i, j int) {
		r.order[nl+i], r.order[nl+j] = r.order[nl+j], r.order[nl+i]
	})
	if rf := r.robbedFrom; rf >= 0 {
		r.robbedFrom = -1
		k := nl
		for i := nl; i < n; i++ {
			if r.sockets[r.order[i]] == rf {
				idx := r.order[i]
				copy(r.order[k+1:i+1], r.order[k:i])
				r.order[k] = idx
				k++
			}
		}
	}
}

// FuzzStealOrder checks Order against refOrder over fuzzed layouts and
// op sequences — draw, steal, robbed by a socket — victim by victim,
// and the rng's next value after the last op.
func FuzzStealOrder(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(0), false, false, int64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(12), uint8(4), uint8(5), false, false, int64(2), []byte{3 | 2<<2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(16), uint8(8), uint8(3), true, false, int64(3), []byte{0, 0, 1, 0, 0, 0, 0, 0, 3 | 1<<2, 0, 0})
	f.Add(uint8(6), uint8(2), uint8(1), false, true, int64(4), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, k, socket, self uint8, ep, noLocality bool, seed int64, ops []byte) {
		n := int(k%32) + 1
		tp := topo.Uniform(n, int(socket%16))
		w := int(self) % n
		pool := allCores(n)
		if ep {
			m := int(socket%4) + 1
			if m > n {
				m = n
			}
			pool = coretable.HomeCores(n, m, int(self)%m)
		}
		o := NewOrder(tp, noLocality, pool, w)
		ref := newRefOrder(tp, noLocality, pool, w)
		if !slices.Equal(o.Victims(), ref.victims) || o.nLocal != ref.nLocal {
			t.Fatalf("layout %v (nLocal %d), want %v (%d)", o.Victims(), o.nLocal, ref.victims, ref.nLocal)
		}
		rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for i, op := range ops {
			switch op & 3 {
			case 0, 1:
				if len(ref.victims) == 0 {
					continue
				}
				if got, want := o.Next(rng), ref.next(refRNG); got != want {
					t.Fatalf("op %d: drew victim %d, want %d", i, got, want)
				}
			case 2:
				o.Stole()
				ref.passSteal = true
			case 3:
				s := int(op>>2) % tp.NumSockets()
				o.Robbed(s)
				ref.robbedFrom = s
			}
		}
		if got, want := rng.Int63(), refRNG.Int63(); got != want {
			t.Fatalf("rng's next value %d, want %d: the draws diverged", got, want)
		}
	})
}
