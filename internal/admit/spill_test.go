package admit

import (
	"math/rand"
	"testing"
)

// TestParseSpillPolicy: the flag names and the report names parse, every
// policy round-trips through String, and nothing else is accepted.
func TestParseSpillPolicy(t *testing.T) {
	for name, want := range map[string]SpillPolicy{
		"none":           SpillNone,
		"no-spill":       SpillNone,
		"random":         SpillRandom,
		"next":           SpillNext,
		"next-preferred": SpillNext,
	} {
		got, err := ParseSpillPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseSpillPolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, junk := range []string{"", "sideways", "random-spill", "next-preferred-spill", "Next"} {
		if _, err := ParseSpillPolicy(junk); err == nil {
			t.Errorf("ParseSpillPolicy(%q) accepted", junk)
		}
	}
	for _, p := range []SpillPolicy{SpillNone, SpillRandom, SpillNext} {
		rt, err := ParseSpillPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("%v does not round-trip through String", p)
		}
	}
	var zero SpillPolicy
	if zero != SpillNext {
		t.Errorf("zero policy is %v, want next-preferred", zero)
	}
}

// FuzzSpillNext holds Next to its contract over arbitrary shard counts,
// walks, refusal sets and hop counts: the pick is a shard not out (or
// none); next-preferred takes the walk's first such shard; no-spill, an
// unknown policy and a spent budget pick none and draw nothing; random
// draws exactly as the simulator's original cands[rng.Intn(len(cands))]
// did, so its pick and the rng's next value both match that transcription.
func FuzzSpillNext(f *testing.F) {
	// policy, k, walk length, walk seed, out mask, hops, budget, rng seed
	f.Add(uint8(SpillNext), uint8(3), uint8(3), int64(1), uint16(0b001), uint8(0), uint8(2), int64(7))
	f.Add(uint8(SpillNext), uint8(3), uint8(3), int64(2), uint16(0b111), uint8(1), uint8(2), int64(7))
	f.Add(uint8(SpillRandom), uint8(3), uint8(3), int64(3), uint16(0b101), uint8(1), uint8(2), int64(7))
	f.Add(uint8(SpillRandom), uint8(1), uint8(1), int64(4), uint16(0), uint8(0), uint8(2), int64(9))
	f.Add(uint8(SpillRandom), uint8(5), uint8(2), int64(5), uint16(0b11111), uint8(0), uint8(2), int64(9))
	f.Add(uint8(SpillRandom), uint8(8), uint8(8), int64(6), uint16(0b10010110), uint8(1), uint8(3), int64(11))
	f.Add(uint8(SpillRandom), uint8(4), uint8(4), int64(7), uint16(0b0110), uint8(2), uint8(2), int64(13))
	f.Add(uint8(SpillNone), uint8(4), uint8(4), int64(8), uint16(0b0001), uint8(0), uint8(2), int64(13))
	f.Add(uint8(3), uint8(2), uint8(2), int64(9), uint16(0), uint8(0), uint8(2), int64(13))
	f.Fuzz(func(t *testing.T, pol, kb, wl uint8, walkSeed int64, mask uint16, hb, bb uint8, seed int64) {
		p := SpillPolicy(pol % 4) // 3 is outside the vocabulary
		k := int(kb%12) + 1
		shards := make([]int, k)
		for s := range shards {
			shards[s] = s
		}
		walk := rand.New(rand.NewSource(walkSeed)).Perm(k)[:int(wl)%k+1]
		out := func(s int) bool { return mask&(1<<s) != 0 }
		hops, budget := int(hb%4), int(bb%4)

		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, ok := Next(p, walk, shards, hops, budget, out, rng.Intn)

		if ok && (got < 0 || got >= k || out(got)) {
			t.Fatalf("picked shard %d: out of range or out", got)
		}
		want := -1
		switch {
		case hops >= budget:
		case p == SpillNext:
			for _, s := range walk {
				if !out(s) {
					want = s
					break
				}
			}
		case p == SpillRandom:
			var cands []int
			for s := 0; s < k; s++ {
				if !out(s) {
					cands = append(cands, s)
				}
			}
			if len(cands) > 0 {
				want = cands[ref.Intn(len(cands))]
			}
		}
		if ok != (want >= 0) || (ok && got != want) {
			t.Fatalf("%v k=%d walk=%v mask=%b hops=%d/%d: Next = %d, %v; want %d", p, k, walk, mask, hops, budget, got, ok, want)
		}
		if a, b := rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("%v k=%d mask=%b hops=%d/%d: rng drawn differently from the transcription", p, k, mask, hops, budget)
		}
	})
}
