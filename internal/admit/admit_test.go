package admit

import (
	"testing"
	"time"

	"dws/internal/wfq"
)

// door builds a queue with the given flow weights and backlog: queued[i]
// is {flow, cost}, enqueued in order with payloads 100, 101, ….
func door(weights []float64, queued [][2]float64) *wfq.Queue[int] {
	q := wfq.New[int]()
	for id, w := range weights {
		q.AddFlow(id, w)
	}
	for i, e := range queued {
		q.Enqueue(int(e[0]), 100+i, e[1])
	}
	return q
}

// TestDecideTable walks every branch of the verdict and every boundary
// its strict inequalities draw.
func TestDecideTable(t *testing.T) {
	const arrival = 7 // the arriving job's payload
	one := []float64{1}
	two := []float64{1, 1}
	type want struct {
		verdict   Verdict
		backlog   int
		predicted int64
		shed      bool
		vFlow     int
		victim    int
	}
	for _, tc := range []struct {
		name    string
		weights []float64
		queued  [][2]float64
		flow    int
		lim     Limits
		a       Arrival
		want    want
	}{
		{
			name: "no history admits blind", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}},
			lim:    Limits{Depth: 8, EarlyReject: true},
			a:      Arrival{EWMA: 0, InService: true, HasDeadline: true, Budget: 1},
			want:   want{verdict: Admitted, backlog: 3},
		},
		{
			name: "predicted exceeds budget", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}, {0, 1}},
			lim:    Limits{Depth: 8, EarlyReject: true},
			a:      Arrival{EWMA: 100, HasDeadline: true, Budget: 300},
			want:   want{verdict: EarlyReject, backlog: 4, predicted: 400},
		},
		{
			name: "predicted equals budget admits", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}},
			lim:    Limits{Depth: 8, EarlyReject: true},
			a:      Arrival{EWMA: 100, HasDeadline: true, Budget: 300},
			want:   want{verdict: Admitted, backlog: 3, predicted: 300},
		},
		{
			name: "the job in service is ahead too", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}},
			lim:    Limits{Depth: 8, EarlyReject: true},
			a:      Arrival{EWMA: 100, InService: true, HasDeadline: true, Budget: 300},
			want:   want{verdict: EarlyReject, backlog: 3, predicted: 400},
		},
		{
			name: "early rejection off admits the doomed", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}},
			lim:    Limits{Depth: 8},
			a:      Arrival{EWMA: 100, InService: true, HasDeadline: true, Budget: 1},
			want:   want{verdict: Admitted, backlog: 3, predicted: 400},
		},
		{
			name: "budget exhausted is refused", weights: one,
			lim:  Limits{Depth: 8, EarlyReject: true},
			a:    Arrival{EWMA: 100, InService: true, HasDeadline: true, Budget: -5},
			want: want{verdict: EarlyReject, predicted: 100},
		},
		{
			name: "no deadline is not budget exhausted", weights: one,
			lim:  Limits{Depth: 8, EarlyReject: true},
			a:    Arrival{EWMA: 100, InService: true, HasDeadline: false, Budget: -5},
			want: want{verdict: Admitted, predicted: 100},
		},
		{
			name: "idle empty flow predicts no wait", weights: one,
			lim:  Limits{Depth: 8, EarlyReject: true},
			a:    Arrival{EWMA: 100, HasDeadline: true, Budget: 0},
			want: want{verdict: Admitted},
		},
		{
			name: "early rejection outranks a full queue", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}},
			lim:    Limits{Depth: 2, EarlyReject: true},
			a:      Arrival{EWMA: 100, HasDeadline: true, Budget: 1},
			want:   want{verdict: EarlyReject, backlog: 2, predicted: 200},
		},
		{
			name: "full queue with a healthy deadline", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}},
			lim:    Limits{Depth: 2, EarlyReject: true},
			a:      Arrival{EWMA: 100, HasDeadline: true, Budget: 1 << 40},
			want:   want{verdict: QueueFull, backlog: 2, predicted: 200},
		},
		{
			name: "one below the depth admits", weights: one,
			queued: [][2]float64{{0, 1}},
			lim:    Limits{Depth: 2},
			want:   want{verdict: Admitted, backlog: 1},
		},
		{
			name: "depth is per flow", weights: two,
			queued: [][2]float64{{0, 1}, {0, 1}},
			flow:   1,
			lim:    Limits{Depth: 2},
			want:   want{verdict: Admitted},
		},
		{
			name: "below the global cap nothing is shed", weights: two,
			queued: [][2]float64{{0, 1}, {0, 1}},
			flow:   1,
			lim:    Limits{Depth: 8, GlobalCap: 3},
			a:      Arrival{Cost: 1},
			want:   want{verdict: Admitted},
		},
		{
			name: "no global cap nothing is shed", weights: two,
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}, {0, 1}},
			flow:   1,
			lim:    Limits{Depth: 8},
			a:      Arrival{Cost: 1},
			want:   want{verdict: Admitted},
		},
		{
			// Bronze tails at 1, 2, 3; gold (weight 2) would finish at 0.5.
			name: "at the cap a better-placed arrival sheds the worst tail", weights: []float64{1, 2},
			queued: [][2]float64{{0, 1}, {0, 1}, {0, 1}},
			flow:   1,
			lim:    Limits{Depth: 8, GlobalCap: 3},
			a:      Arrival{Cost: 1},
			want:   want{verdict: Admitted, shed: true, vFlow: 0, victim: 102},
		},
		{
			// Flow 0's tail finishes at 1; the arrival on flow 1 would too.
			name: "a tie with the worst tail refuses the arrival", weights: two,
			queued: [][2]float64{{0, 1}},
			flow:   1,
			lim:    Limits{Depth: 8, GlobalCap: 1},
			a:      Arrival{Cost: 1},
			want:   want{verdict: Overload},
		},
		{
			name: "a worse-placed arrival is refused", weights: two,
			queued: [][2]float64{{0, 1}},
			flow:   1,
			lim:    Limits{Depth: 8, GlobalCap: 1},
			a:      Arrival{Cost: 2},
			want:   want{verdict: Overload},
		},
		{
			name: "a flow never sheds itself", weights: one,
			queued: [][2]float64{{0, 1}, {0, 1}},
			lim:    Limits{Depth: 8, GlobalCap: 2},
			a:      Arrival{Cost: 0.001},
			want:   want{verdict: Overload, backlog: 2},
		},
		{
			name: "the depth check precedes the global cap", weights: two,
			queued: [][2]float64{{0, 1}, {1, 1}},
			flow:   1,
			lim:    Limits{Depth: 1, GlobalCap: 2},
			a:      Arrival{Cost: 0.001},
			want:   want{verdict: QueueFull, backlog: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := door(tc.weights, tc.queued)
			before := q.Total()
			d := Decide(q, tc.flow, arrival, tc.lim, tc.a)
			got := want{d.Verdict, d.Backlog, d.Predicted, d.DidShed, d.VictimFlow, d.Victim}
			if got != tc.want {
				t.Fatalf("Decide = %+v, want %+v", got, tc.want)
			}
			after := before
			if d.Verdict == Admitted && !d.DidShed {
				after++
			}
			if q.Total() != after {
				t.Fatalf("total backlog %d → %d, want %d", before, q.Total(), after)
			}
			if d.Verdict != Admitted {
				return
			}
			// The arrival sits at its flow's tail.
			var last int
			for q.Len(tc.flow) > 0 {
				last, _ = q.Pop(tc.flow)
			}
			if last != arrival {
				t.Fatalf("flow %d's tail is %d, not the arrival", tc.flow, last)
			}
		})
	}
}

// TestShedRollsFrontierBack: after a shed the victim flow's next enqueue
// is tagged exactly as if the shed job had never been queued.
func TestShedRollsFrontierBack(t *testing.T) {
	q := door([]float64{1, 2}, [][2]float64{{0, 1}, {0, 1}})
	frontier := q.TagPreview(0, 1)
	q.Enqueue(0, 102, 1)
	d := Decide(q, 1, 7, Limits{Depth: 8, GlobalCap: 3}, Arrival{Cost: 1})
	if !d.DidShed || d.VictimFlow != 0 || d.Victim != 102 {
		t.Fatalf("no shed of the bronze tail: %+v", d)
	}
	if got := q.TagPreview(0, 1); got != frontier {
		t.Fatalf("bronze frontier %g after the shed, want %g", got, frontier)
	}
}

// TestColdPricing: a flow without history is charged the door-wide
// fallback, and on a fully cold door the zero charge becomes
// wfq.DefaultCost.
func TestColdPricing(t *testing.T) {
	if got := Charge(40, 900); got != 40 {
		t.Errorf("warm flow charged %d, want its own 40", got)
	}
	if got := Charge(0, 900); got != 900 {
		t.Errorf("cold flow charged %d, want the fallback 900", got)
	}
	q := door([]float64{1}, nil)
	Decide(q, 0, 7, Limits{Depth: 8}, Arrival{Cost: float64(Charge(0, 0))})
	if got := q.TagPreview(0, 3); got != wfq.DefaultCost+3 {
		t.Errorf("fully cold door: frontier %g, want wfq.DefaultCost", got-3)
	}
}

func TestFold(t *testing.T) {
	if got := Fold(int64(0), 80); got != 80 {
		t.Errorf("first observation: %d, want 80", got)
	}
	if got := Fold(int64(80), 120); got != 90 {
		t.Errorf("Fold(80,120) = %d, want 90", got)
	}
	if got := Fold(int64(100), 98); got != 100 {
		t.Errorf("Fold(100,98) = %d, want 100 (integer division truncates toward zero)", got)
	}
	if got := Fold(2.0, 2.0); got != 2.0 {
		t.Errorf("a constant is not a fixed point: %g", got)
	}
	if got := Fold(1.0, 3.0); got != 1.5 {
		t.Errorf("Fold(1,3) = %g, want 1.5", got)
	}
	if got := Fold(time.Second, 5*time.Second); got != 2*time.Second {
		t.Errorf("Fold(1s,5s) = %v, want 2s", got)
	}
}

// TestVocabulary pins the wire form and the spill/terminal split.
func TestVocabulary(t *testing.T) {
	for v, w := range map[Verdict]struct {
		s     string
		spill bool
	}{
		Admitted:    {"admitted", false},
		EarlyReject: {"early_reject", false},
		QueueFull:   {"queue_full", true},
		Overload:    {"overload", true},
		Shed:        {"shed", true},
		Verdict(9):  {"Verdict(9)", false},
	} {
		if v.String() != w.s || v.Spillable() != w.spill || SpillableReason(w.s) != w.spill {
			t.Errorf("%d: %q spillable=%v reason=%v, want %q %v",
				int(v), v.String(), v.Spillable(), SpillableReason(w.s), w.s, w.spill)
		}
	}
	for _, r := range []string{"", "unreachable", "unavailable", "draining"} {
		if SpillableReason(r) {
			t.Errorf("reason %q outside the vocabulary is spillable", r)
		}
	}
}

// FuzzDecide drives random arrive/pop/complete sequences through Decide
// and through a straight-line reference — the arithmetic of the sim's
// jobArrive as it stood before the core existed, transcribed — each over
// its own queue, and requires identical verdicts, victims and queue
// state after every step. Input: byte 0 configures the door, then
// (op, x, y) triples.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{0x83, 2, 0, 40, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const nflows, depth = 3, 3
		lim := Limits{Depth: depth, GlobalCap: int(data[0] % 6), EarlyReject: data[0]&0x80 != 0}
		q, ref := wfq.New[int](), wfq.New[int]()
		for id := 0; id < nflows; id++ {
			q.AddFlow(id, float64(id+1))
			ref.AddFlow(id, float64(id+1))
		}
		var ewma, refEWMA [nflows]int64
		var fallback, refFallback int64
		var busy [nflows]bool
		next := 0
		for i := 1; i+2 < len(data); i += 3 {
			op, x, y := data[i]%4, data[i+1], data[i+2]
			id := int(x) % nflows
			switch op {
			case 0, 1: // arrive
				hasDeadline := y&1 != 0
				budget := int64(y>>1)*8 - 64 // −64 … 952: exhausted budgets included
				next++

				d := Decide(q, id, next, lim, Arrival{
					EWMA: ewma[id], InService: busy[id],
					HasDeadline: hasDeadline, Budget: budget,
					Cost: float64(Charge(ewma[id], fallback)),
				})

				wantV, wantShed, wantVF, wantVictim := Admitted, false, 0, 0
				backlog := ref.Len(id)
				ahead := backlog
				if busy[id] {
					ahead++
				}
				cost := float64(refEWMA[id])
				if refEWMA[id] == 0 {
					cost = float64(refFallback)
				}
				switch {
				case lim.EarlyReject && refEWMA[id] > 0 && hasDeadline && int64(ahead)*refEWMA[id] > budget:
					wantV = EarlyReject
				case backlog >= depth:
					wantV = QueueFull
				default:
					if lim.GlobalCap > 0 && ref.Total() >= lim.GlobalCap {
						fNew := ref.TagPreview(id, cost)
						_, fMax, ok := ref.PeekMaxTail()
						if !ok || fMax <= fNew {
							wantV = Overload
							break
						}
						wantVF, wantVictim, wantShed = ref.ShedMaxTail()
					}
					ref.Enqueue(id, next, cost)
				}

				if d.Verdict != wantV || d.Backlog != backlog || d.Predicted != int64(ahead)*refEWMA[id] ||
					d.DidShed != wantShed || d.VictimFlow != wantVF || d.Victim != wantVictim {
					t.Fatalf("step %d: Decide = %+v, reference verdict=%v backlog=%d shed=%v victim=%d/%d",
						i, d, wantV, backlog, wantShed, wantVF, wantVictim)
				}
			case 2: // pop: the flow's runner takes its head
				got, ok := q.Pop(id)
				want, wok := ref.Pop(id)
				if got != want || ok != wok {
					t.Fatalf("step %d: Pop = %d,%v, reference %d,%v", i, got, ok, want, wok)
				}
				if ok {
					busy[id] = true
				}
			case 3: // complete: fold the run into both EWMAs
				if !busy[id] {
					continue
				}
				busy[id] = false
				run := int64(y) * 4
				ewma[id], fallback = Fold(ewma[id], run), Fold(fallback, run)
				if refEWMA[id] == 0 {
					refEWMA[id] = run
				} else {
					refEWMA[id] += (run - refEWMA[id]) / 4
				}
				if refFallback == 0 {
					refFallback = run
				} else {
					refFallback += (run - refFallback) / 4
				}
				if ewma[id] != refEWMA[id] || fallback != refFallback {
					t.Fatalf("step %d: EWMAs %d/%d, reference %d/%d", i, ewma[id], fallback, refEWMA[id], refFallback)
				}
			}
			if q.Total() != ref.Total() || q.VirtualTime() != ref.VirtualTime() {
				t.Fatalf("step %d: total %d v=%g, reference %d v=%g",
					i, q.Total(), q.VirtualTime(), ref.Total(), ref.VirtualTime())
			}
			if lim.GlobalCap > 0 && q.Total() > lim.GlobalCap {
				t.Fatalf("step %d: backlog %d over the global cap %d", i, q.Total(), lim.GlobalCap)
			}
			for id := 0; id < nflows; id++ {
				if q.Len(id) != ref.Len(id) || q.TagPreview(id, 1) != ref.TagPreview(id, 1) {
					t.Fatalf("step %d flow %d: len %d frontier %g, reference %d %g",
						i, id, q.Len(id), q.TagPreview(id, 1), ref.Len(id), ref.TagPreview(id, 1))
				}
				if q.Len(id) > depth {
					t.Fatalf("step %d flow %d: backlog %d over depth %d", i, id, q.Len(id), depth)
				}
			}
		}
	})
}
