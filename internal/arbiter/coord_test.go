package arbiter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dws/internal/coretable"
	"dws/internal/topo"
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
	static := []int{0, 1}
	if got := Home(nil, topo.Flat(4), 0, static, true); !reflect.DeepEqual(got, static) {
		t.Errorf("no table: home %v, want the static %v", got, static)
	}

	flat := coretable.NewMem(4)
	if got := Home(flat, topo.Flat(4), 1, []int{2, 3}, true); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("nothing published: home %v, want the static [2 3]", got)
	}
	if _, ok := flat.SetEntitlements([]int32{3, 1, 0, 0}, 0); !ok {
		t.Fatal("SetEntitlements refused")
	}
	if got := Home(flat, topo.Flat(4), 1, []int{2, 3}, true); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("flat entitled home %v, want [3]", got)
	}

	// Two sockets of 4: slot 0 (3 cores) packs into socket 0 and slot 1
	// (4 cores) into socket 1 when placed; the flat prefix split tears it.
	tp := topo.Uniform(8, 4)
	sock := coretable.NewMem(8)
	if got := Home(sock, tp, 1, []int{4, 5, 6, 7}, true); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Errorf("placed, nothing published: home %v, want the static [4 5 6 7]", got)
	}
	if _, ok := sock.SetEntitlements([]int32{3, 4, 0, 0, 0, 0, 0, 0}, 0); !ok {
		t.Fatal("SetEntitlements refused")
	}
	if got := Home(sock, tp, 1, nil, true); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Errorf("placed home %v, want socket 1's [4 5 6 7]", got)
	}
	if got := Home(sock, tp, 1, nil, false); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Errorf("unplaced home %v, want the flat prefix slice [3 4 5 6]", got)
	}
}
