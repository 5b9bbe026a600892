package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"dws/internal/task"
	"dws/internal/trace"
)

// tieStreams is an open-loop input built so that arrivals tie, on the
// virtual clock, with everything else the set-up loop schedules: program
// 0's arrivals at 10 ms and 20 ms land on its own coordinator ticks,
// three of them share 20 ms with each other, with program 1's join and
// with program 1's first two arrivals, and with a queue of one the third
// of them is refused at the tie; program 2 joins at 0 and never submits.
// Equal timestamps fire in the order the events drew their seq, so the
// outcome below moves if an arrival draws a different seq than the
// arm-everything-up-front loop gave it.
func tieStreams() (jobs [][]Job, joins []int64) {
	at := func(deadlineUS int64, times ...int64) []Job {
		js := make([]Job, len(times))
		for i, t := range times {
			js[i] = Job{AtUS: t, Graph: &task.Graph{Name: "job", Root: bigRoot()}, DeadlineUS: deadlineUS}
		}
		return js
	}
	return [][]Job{
		at(0, 0, 10_000, 20_000, 20_000, 20_000, 30_000, 30_000, 150_000),
		at(60_000, 20_000, 20_000, 30_000, 30_000, 150_000),
		nil,
	}, []int64{0, 20_000, 0}
}

// TestOpenArrivalTies pins a replay whose arrivals tie with each other,
// with a join and with coordinator ticks — end time, event count, the
// outcome log and the whole scheduling trace — to the values recorded
// when RunOpen armed every arrival before the first event fired. The trace
// hash is over the typed event stream, one JSON line per trace.Event; the
// DWS one was re-pinned when regrabHome began emitting its claims and
// reclaims, which moved no other value.
func TestOpenArrivalTies(t *testing.T) {
	want := map[Policy]struct {
		endUS, events      int64
		logHash, traceHash uint64
	}{
		DWS: {222753, 487, 0xf0184d8dcb7c365a, 0xee2a29bb5271fa66},
		GO:  {904823, 394, 0xc554ade685ca7156, 0x2eeb73052fd6e156},
	}
	for _, pol := range []Policy{DWS, GO} {
		graphs := []*task.Graph{
			{Name: "ta", Root: task.Leaf(1), MemIntensity: 0.4},
			{Name: "tb", Root: task.Leaf(1), MemIntensity: 0.7},
			{Name: "tc", Root: task.Leaf(1)},
		}
		m := mustMachine(t, debugConfig(pol), graphs)
		th := fnv.New64a()
		enc := json.NewEncoder(th)
		m.Observe = func(ev trace.Event) {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		jobs, joins := tieStreams()
		res, err := m.RunOpen(OpenOpts{Jobs: jobs, JoinsUS: joins, QueueCap: 1, HorizonUS: 600_000_000_000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		lh := fnv.New64a()
		status := map[JobStatus]int{}
		for _, j := range res.Jobs {
			fmt.Fprintf(lh, "%d %d %d %d %d %d\n", j.Prog, j.Index, j.AtUS, j.Status, j.StartUS, j.DoneUS)
			status[j.Status]++
		}
		if status[JobRejected] == 0 || status[JobOK] == 0 {
			t.Fatalf("%v: outcomes %v; the stream must both serve and refuse at a tie", pol, status)
		}
		w := want[pol]
		if res.EndTimeUS != w.endUS || res.Events != w.events || lh.Sum64() != w.logHash || th.Sum64() != w.traceHash {
			t.Errorf("%v: {%d, %d, %#x, %#x}, want {%d, %d, %#x, %#x} — an arrival fired out of its reserved order",
				pol, res.EndTimeUS, res.Events, lh.Sum64(), th.Sum64(), w.endUS, w.events, w.logHash, w.traceHash)
		}
	}
}

// TestOpenHeapSetByMachine: the event heap holds what the machine has in
// flight plus one armed arrival per program, so its high-water mark (read
// off the capacity append grew it to) does not move when the same arrival
// pattern runs four times as long.
func TestOpenHeapSetByMachine(t *testing.T) {
	heapCap := func(n int) int {
		graphs := []*task.Graph{{Name: "ta", Root: task.Leaf(1)}, {Name: "tb", Root: task.Leaf(1)}}
		m := mustMachine(t, debugConfig(DWS), graphs)
		_, err := m.RunOpen(OpenOpts{
			Jobs:      [][]Job{mkJobs(n, 0, 5_000, 0, smallRoot), mkJobs(n, 2_500, 5_000, 0, smallRoot)},
			HorizonUS: 600_000_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cap(m.events)
	}
	short, long := heapCap(100), heapCap(400)
	if long > short {
		t.Fatalf("event heap grew to %d slots for 800 jobs from %d for 200: it is holding the stream's future", long, short)
	}
}
