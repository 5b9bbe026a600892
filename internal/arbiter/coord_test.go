package arbiter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dws/internal/coretable"
	"dws/internal/topo"
	"dws/internal/trace"
)

func TestWant(t *testing.T) {
	for _, c := range []struct{ nb, na, want int }{
		{0, 0, 0}, {3, 0, 3}, {4, 2, 2}, {5, 2, 2}, {1, 3, 0},
	} {
		if got := Want(c.nb, c.na); got != c.want {
			t.Errorf("Want(%d, %d) = %d, want %d", c.nb, c.na, got, c.want)
		}
	}
}

// refPlan is the simulator's coordinator selection as it stood before
// Plan, transcribed: case 1 claims free[i] for i in rng.Perm(nf)[:nw];
// case 2 claims every free core, then borrowed[i] for i in
// rng.Perm(nr)[:nw-nf]; case 3 takes everything without a draw. A pass
// with no demand never reached the selection.
func refPlan(nw int, free, borrowed []int, rng *rand.Rand) (claim, reclaim []int) {
	nf, nr := len(free), len(borrowed)
	if nw <= 0 {
		return nil, nil
	}
	switch {
	case nw <= nf:
		for _, i := range rng.Perm(nf)[:nw] {
			claim = append(claim, free[i])
		}
	case nw <= nf+nr:
		claim = append(claim, free...)
		for _, i := range rng.Perm(nr)[:nw-nf] {
			reclaim = append(reclaim, borrowed[i])
		}
	default:
		claim = append(claim, free...)
		reclaim = append(reclaim, borrowed...)
	}
	return claim, reclaim
}

// FuzzPlan checks Plan's bounds and its draw contract: no plan takes more
// than nw actions, claims come from free and reclaims from borrowed (the
// home) without duplicates, the case boundaries are exact, and Plan's
// lists and the rng's next value match refPlan's.
func FuzzPlan(f *testing.F) {
	// Each case and both boundaries on free {0, 2, 4}, borrowed {1, 3}.
	for nw := 0; nw <= 6; nw++ {
		f.Add(nw, uint8(3), uint8(2), int64(nw))
	}
	f.Add(1, uint8(0), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, nw int, nf, nr uint8, seed int64) {
		nw %= 80
		// Disjoint core sets, as on a table: free cores even, borrowed
		// home cores odd.
		free, borrowed := make([]int, nf%40), make([]int, nr%40)
		for i := range free {
			free[i] = 2 * i
		}
		for i := range borrowed {
			borrowed[i] = 2*i + 1
		}
		inFree, inBorrowed := slices.Clone(free), slices.Clone(borrowed)

		rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		claim, reclaim := Plan(nw, free, borrowed, rng)
		wantClaim, wantReclaim := refPlan(nw, inFree, inBorrowed, refRNG)

		want := max(nw, 0)
		if n := len(claim) + len(reclaim); n > want {
			t.Fatalf("plan has %d actions for nw=%d", n, nw)
		}
		if got, w := len(claim), min(want, len(free)); got != w {
			t.Fatalf("len(claim) = %d, want min(nw, nf) = %d", got, w)
		}
		if got, w := len(claim)+len(reclaim), min(want, len(free)+len(borrowed)); got != w {
			t.Fatalf("len(claim)+len(reclaim) = %d, want min(nw, nf+nr) = %d", got, w)
		}
		seen := map[int]bool{}
		for _, c := range claim {
			if c%2 != 0 || c/2 >= len(free) || seen[c] {
				t.Fatalf("claim %v: core %d not free or duplicated", claim, c)
			}
			seen[c] = true
		}
		for _, c := range reclaim {
			if c%2 != 1 || c/2 >= len(borrowed) || seen[c] {
				t.Fatalf("reclaim %v: core %d outside the borrowed home or duplicated", reclaim, c)
			}
			seen[c] = true
		}
		if !slices.Equal(claim, wantClaim) || !slices.Equal(reclaim, wantReclaim) {
			t.Fatalf("Plan = %v, %v; the transcribed selection = %v, %v",
				claim, reclaim, wantClaim, wantReclaim)
		}
		if a, b := rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("rng drifted from the transcribed draw: next %d, want %d", a, b)
		}
		if !slices.Equal(free, inFree) || !slices.Equal(borrowed, inBorrowed) {
			t.Fatal("Plan modified its inputs")
		}
	})
}

func TestHome(t *testing.T) {
	var buf []int
	static := []int{0, 1}
	if got := Home(nil, topo.Flat(4), 0, static, true, &buf); !reflect.DeepEqual(got, static) {
		t.Errorf("no table: home %v, want the static %v", got, static)
	}

	flat := coretable.NewMem(4)
	if got := Home(flat, topo.Flat(4), 1, []int{2, 3}, true, &buf); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("nothing published: home %v, want the static [2 3]", got)
	}
	if _, ok := flat.SetEntitlements([]int32{3, 1, 0, 0}, 0); !ok {
		t.Fatal("SetEntitlements refused")
	}
	if got := Home(flat, topo.Flat(4), 1, []int{2, 3}, true, &buf); !reflect.DeepEqual(got, []int{3}) || &got[0] != &buf[0] {
		t.Errorf("flat entitled home %v, want [3] written into buf", got)
	}
	ft := topo.Flat(4)
	if allocs := testing.AllocsPerRun(10, func() { Home(flat, ft, 1, nil, true, &buf) }); allocs != 0 {
		t.Errorf("flat entitled home: %v allocations a call, want 0", allocs)
	}

	// Two sockets of 4: slot 0 (3 cores) packs into socket 0 and slot 1
	// (4 cores) into socket 1 when placed; the flat prefix split tears it.
	tp := topo.Uniform(8, 4)
	sock := coretable.NewMem(8)
	if got := Home(sock, tp, 1, []int{4, 5, 6, 7}, true, &buf); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Errorf("placed, nothing published: home %v, want the static [4 5 6 7]", got)
	}
	if _, ok := sock.SetEntitlements([]int32{3, 4, 0, 0, 0, 0, 0, 0}, 0); !ok {
		t.Fatal("SetEntitlements refused")
	}
	if got := Home(sock, tp, 1, nil, true, &buf); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Errorf("placed home %v, want socket 1's [4 5 6 7]", got)
	}
	if got := Home(sock, tp, 1, nil, false, &buf); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Errorf("unplaced home %v, want the flat prefix slice [3 4 5 6]", got)
	}
}

// fakeCrew stages one program's workers for a Coordinator: asleep[c]
// says whether core c's worker sleeps, and a stuck worker reads asleep
// but will not wake (it raced away between observation and wake).
type fakeCrew struct {
	asleep, stuck []bool
	home          []int
	events        []trace.Event
}

func newFakeCrew(k int, home []int) *fakeCrew {
	return &fakeCrew{asleep: make([]bool, k), stuck: make([]bool, k), home: home}
}

func (f *fakeCrew) Asleep(c int) bool { return f.asleep[c] }
func (f *fakeCrew) Wake(c int) bool {
	if !f.asleep[c] || f.stuck[c] {
		return false
	}
	f.asleep[c] = false
	return true
}
func (f *fakeCrew) Home() []int         { return f.home }
func (f *fakeCrew) Emit(ev trace.Event) { f.events = append(f.events, ev) }

func (f *fakeCrew) kinds() []trace.Kind {
	var ks []trace.Kind
	for _, ev := range f.events {
		ks = append(ks, ev.Kind)
	}
	return ks
}

// A claimed core whose worker will not wake goes back to the table, with
// a Release event after its Claim.
func TestActReleasesClaimOfUnwokenWorker(t *testing.T) {
	tbl := coretable.NewMem(4)
	tbl.InstallHome([]int{0, 1}, 1)
	tbl.InstallHome([]int{3}, 2)
	crew := newFakeCrew(4, []int{0, 1})
	crew.asleep[2], crew.stuck[2] = true, true
	co := &Coordinator{Table: tbl, PID: 1, Cores: 4, Crew: crew, RNG: rand.New(rand.NewSource(1))}

	ps, ok := co.Decide(1, 1)
	if !ok || !slices.Equal(ps.Claim, []int{2}) || len(ps.Reclaim) != 0 {
		t.Fatalf("Decide = %+v, %v; want a pass claiming core 2", ps, ok)
	}
	ev := co.Act(ps)
	if ev.Claimed != 1 || ev.Woken != 0 {
		t.Errorf("tick claimed %d, woke %d; want 1, 0", ev.Claimed, ev.Woken)
	}
	if occ := tbl.Occupant(2); occ != coretable.Free {
		t.Errorf("core 2 held by p%d after the failed wake, want free", occ)
	}
	want := []trace.Kind{trace.Claim, trace.Release, trace.CoordTick}
	if got := crew.kinds(); !slices.Equal(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
	if rel := crew.events[1]; rel.Core != 2 || rel.Prog != 1 {
		t.Errorf("release event %+v, want p1 core 2", rel)
	}
}

// The run-start regrab re-takes only the home cores whose worker sleeps:
// an awake worker's free or borrowed home core is left as it is.
func TestRegrabSkipsAwakeWorkers(t *testing.T) {
	tbl := coretable.NewMem(6)
	tbl.InstallHome([]int{1, 3}, 2)
	crew := newFakeCrew(6, []int{0, 1, 2, 3})
	crew.asleep[2], crew.asleep[3] = true, true // 0 (free) and 1 (borrowed) awake
	co := &Coordinator{Table: tbl, PID: 1, Cores: 6, Crew: crew}

	claimed, reclaimed := co.Regrab()
	if claimed != 1 || reclaimed != 1 {
		t.Fatalf("Regrab = %d claims, %d reclaims; want 1, 1", claimed, reclaimed)
	}
	if occ := tbl.Occupant(0); occ != coretable.Free {
		t.Errorf("awake worker's free home core 0 held by p%d, want free", occ)
	}
	if occ := tbl.Occupant(1); occ != 2 || tbl.EvictionPending(1) {
		t.Errorf("awake worker's borrowed home core 1: occupant p%d, eviction %v; want p2, none",
			occ, tbl.EvictionPending(1))
	}
	for _, c := range []int{2, 3} {
		if occ := tbl.Occupant(c); occ != 1 || crew.asleep[c] {
			t.Errorf("sleeping worker's home core %d: occupant p%d, asleep %v; want p1, woken", c, occ, crew.asleep[c])
		}
	}
	if crew.asleep[0] || crew.asleep[1] {
		t.Error("regrab put an awake worker to sleep")
	}
}

// FuzzCoordPass runs one coordinator pass over a random table, random
// worker states (some stuck) and random demand, and checks that it takes
// at most N_w actions, that every core it claimed and kept or reclaimed
// ends up occupied by the program, and that it reclaims no core outside
// the program's home block.
func FuzzCoordPass(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(8), uint8(3), uint8(seed), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, k, progs, nb, na uint8) {
		cores := int(k%16) + 1
		nprog := int(progs)%cores + 1
		r := rand.New(rand.NewSource(seed))
		tbl := coretable.NewMem(cores)
		home := coretable.HomeCores(cores, nprog, 0)
		crew := newFakeCrew(cores, home)
		for c := 0; c < cores; c++ {
			if pid := int32(r.Intn(nprog + 1)); pid != coretable.Free {
				tbl.InstallHome([]int{c}, pid)
			}
			crew.asleep[c] = r.Intn(2) == 0
			crew.stuck[c] = r.Intn(4) == 0
		}
		co := &Coordinator{Table: tbl, PID: 1, Cores: cores, Crew: crew, RNG: r}

		ps, ok := co.Decide(int(nb), int(na))
		if !ok {
			if Want(int(nb), int(na)) > 0 {
				t.Fatalf("no pass for nb=%d, na=%d", nb, na)
			}
			return
		}
		ev := co.Act(ps)
		if n := ev.Claimed + ev.Reclaimed; n > ev.NW || ev.Woken > n {
			t.Fatalf("tick %+v: %d actions, %d woken for N_w=%d", ev, n, ev.Woken, ev.NW)
		}
		held := map[int]bool{}
		for _, e := range crew.events {
			switch e.Kind {
			case trace.Claim:
				held[e.Core] = true
			case trace.Release:
				delete(held, e.Core)
			case trace.Reclaim:
				if !slices.Contains(home, e.Core) {
					t.Fatalf("reclaimed core %d outside the home block %v", e.Core, home)
				}
				held[e.Core] = true
			}
		}
		for c := range held {
			if occ := tbl.Occupant(c); occ != 1 {
				t.Fatalf("core %d claimed or reclaimed but held by p%d", c, occ)
			}
		}
	})
}
