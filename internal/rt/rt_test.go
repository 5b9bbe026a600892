package rt

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testSystem(t *testing.T, pol Policy, progs int) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Cores:       8,
		Programs:    progs,
		Policy:      pol,
		CoordPeriod: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// parallelSum spawns a binary tree of depth levels whose leaves add their
// index into total; it returns the expected sum.
func parallelSum(total *atomic.Int64, depth int) (Task, int64) {
	var want int64
	var leaves int64
	var build func(d int, base int64) Task
	build = func(d int, base int64) Task {
		if d == 0 {
			leaves++
			want += base
			return func(*Ctx) { total.Add(base) }
		}
		left := build(d-1, base*2)
		right := build(d-1, base*2+1)
		return func(c *Ctx) {
			c.Spawn(left)
			c.Spawn(right)
			c.Sync()
		}
	}
	root := build(depth, 1)
	_ = leaves
	return root, want
}

func TestSingleProgramAllPolicies(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := testSystem(t, pol, 1)
			p, err := s.NewProgram("main")
			if err != nil {
				t.Fatal(err)
			}
			var total atomic.Int64
			root, want := parallelSum(&total, 8)
			if err := p.Run(root); err != nil {
				t.Fatal(err)
			}
			if got := total.Load(); got != want {
				t.Fatalf("sum = %d, want %d", got, want)
			}
			if p.Stats().Runs != 1 {
				t.Fatalf("Runs = %d, want 1", p.Stats().Runs)
			}
		})
	}
}

func TestRepeatedRuns(t *testing.T) {
	s := testSystem(t, DWS, 1)
	p, err := s.NewProgram("main")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var total atomic.Int64
		root, want := parallelSum(&total, 6)
		if err := p.Run(root); err != nil {
			t.Fatal(err)
		}
		if got := total.Load(); got != want {
			t.Fatalf("run %d: sum = %d, want %d", i, got, want)
		}
	}
	if got := p.Stats().Runs; got != 5 {
		t.Fatalf("Runs = %d, want 5", got)
	}
}

func TestCoRunTwoPrograms(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := testSystem(t, pol, 2)
			pa, err := s.NewProgram("a")
			if err != nil {
				t.Fatal(err)
			}
			pb, err := s.NewProgram("b")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var sums [2]atomic.Int64
			var wants [2]int64
			for i, p := range []*Program{pa, pb} {
				root, want := parallelSum(&sums[i], 7)
				wants[i] = want
				wg.Add(1)
				go func(p *Program, root Task) {
					defer wg.Done()
					for r := 0; r < 3; r++ {
						if err := p.Run(root); err != nil {
							t.Error(err)
							return
						}
					}
				}(p, root)
			}
			wg.Wait()
			for i := range sums {
				if got := sums[i].Load(); got != 3*wants[i] {
					t.Fatalf("program %d: sum = %d, want %d", i, got, 3*wants[i])
				}
			}
		})
	}
}

func TestHomeAllocationDisjoint(t *testing.T) {
	s := testSystem(t, DWS, 2)
	pa, _ := s.NewProgram("a")
	pb, _ := s.NewProgram("b")
	ha, hb := pa.Home(), pb.Home()
	if len(ha)+len(hb) != s.Cores() {
		t.Fatalf("home sizes %d+%d != %d", len(ha), len(hb), s.Cores())
	}
	seen := map[int]bool{}
	for _, c := range append(ha, hb...) {
		if seen[c] {
			t.Fatalf("core %d in two home sets", c)
		}
		seen[c] = true
	}
}

// yieldingSerial returns a task that stays busy for roughly d of wall
// time while yielding the processor, so sibling workers get scheduled
// even on a single-CPU host.
func yieldingSerial(d time.Duration) Task {
	return func(*Ctx) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestDWSSleepsAndWakes: a program whose work fits one worker must put
// the rest to sleep; repeated runs must wake them again.
func TestDWSSleepsAndWakes(t *testing.T) {
	s := testSystem(t, DWS, 1)
	p, err := s.NewProgram("narrow")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Run(yieldingSerial(30 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Sleeps == 0 {
		t.Error("no worker ever slept during a serial workload")
	}
	if st.Wakes == 0 {
		t.Error("the second run never woke a sleeping worker")
	}
	t.Logf("stats: %+v", st)
}

// TestDWSCoRunExchangesCores: a demanding program next to a serial one
// should claim released slots (claims or reclaims observed).
func TestDWSCoRunExchangesCores(t *testing.T) {
	s := testSystem(t, DWS, 2)
	wide, _ := s.NewProgram("wide")
	narrow, _ := s.NewProgram("narrow")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Wide: barrages of yielding leaves so there is always queued work.
		root := func(c *Ctx) {
			for round := 0; round < 20; round++ {
				for i := 0; i < 16; i++ {
					c.Spawn(func(*Ctx) { time.Sleep(500 * time.Microsecond) })
				}
				c.Sync()
			}
		}
		for r := 0; r < 3; r++ {
			if err := wide.Run(root); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		if err := narrow.Run(yieldingSerial(60 * time.Millisecond)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	ws, ns := wide.Stats(), narrow.Stats()
	t.Logf("wide: %+v", ws)
	t.Logf("narrow: %+v", ns)
	if ns.Sleeps == 0 {
		t.Error("narrow program never released a slot")
	}
	if ws.Claims == 0 && ws.Reclaims == 0 {
		t.Error("wide program never claimed or reclaimed a slot")
	}
}

// TestRunAllocatesNothing pins Run's own cost: its root frame, completion
// signal, root node and re-wake ticker belong to the program, so a run of
// a prebuilt task that spawns nothing allocates nothing — under every
// policy, and under DWS with an arbiter publishing too (the entitled home
// block is rebuilt only when it moves).
func TestRunAllocatesNothing(t *testing.T) {
	cfgs := map[string]Config{
		"ABP":         {Policy: ABP},
		"DWS":         {Policy: DWS},
		"DWS+arbiter": {Policy: DWS, ArbiterPeriod: 5 * time.Millisecond},
	}
	empty := func(*Ctx) {}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			cfg.Cores, cfg.Programs = 2, 2
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			defer sys.Close()
			p, err := sys.NewProgram("null")
			if err != nil {
				t.Fatalf("NewProgram: %v", err)
			}
			if cfg.ArbiterPeriod > 0 {
				for sys.EntitlementEpoch() == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			run := func() {
				if err := p.Run(empty); err != nil {
					t.Fatalf("Run: %v", err)
				}
			}
			for i := 0; i < 32; i++ {
				run() // the first run makes the ticker; the injection queue settles within its capacity
			}
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Errorf("Run of an empty task allocates %v times, want 0", got)
			}
		})
	}
}

func TestRunAfterClose(t *testing.T) {
	s := testSystem(t, ABP, 1)
	p, _ := s.NewProgram("main")
	p.Close()
	p.Close() // idempotent
	if err := p.Run(func(*Ctx) {}); err != ErrClosed {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

func TestTooManyPrograms(t *testing.T) {
	s := testSystem(t, ABP, 1)
	if _, err := s.NewProgram("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewProgram("b"); err == nil {
		t.Fatal("second program accepted on a 1-program system")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{Cores: 0, Programs: 1}); err == nil {
		t.Error("Cores=0 accepted")
	}
	if _, err := NewSystem(Config{Cores: 4, Programs: 0}); err == nil {
		t.Error("Programs=0 accepted")
	}
	if _, err := NewSystem(Config{Cores: 4, Programs: 5}); err == nil {
		t.Error("Programs>Cores accepted")
	}
}

// TestCtxWorkerInRange: tasks observe a valid worker index.
func TestCtxWorkerInRange(t *testing.T) {
	s := testSystem(t, DWS, 1)
	p, _ := s.NewProgram("main")
	var bad atomic.Int64
	root := func(c *Ctx) {
		for i := 0; i < 32; i++ {
			c.Spawn(func(c *Ctx) {
				if c.Worker() < 0 || c.Worker() >= 8 {
					bad.Add(1)
				}
				if c.Program() != p {
					bad.Add(1)
				}
			})
		}
		c.Sync()
	}
	if err := p.Run(root); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d tasks observed a bad context", bad.Load())
	}
}

// TestPropertyParallelSumMatches runs random-depth spawn trees and checks
// determinism of the computed sum under DWS.
func TestPropertyParallelSumMatches(t *testing.T) {
	s := testSystem(t, DWS, 1)
	p, _ := s.NewProgram("main")
	f := func(d uint8) bool {
		depth := int(d%6) + 1
		var total atomic.Int64
		root, want := parallelSum(&total, depth)
		if err := p.Run(root); err != nil {
			return false
		}
		return total.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNestedSync: explicit Sync mid-task joins only already-spawned work.
func TestNestedSync(t *testing.T) {
	s := testSystem(t, ABP, 1)
	p, _ := s.NewProgram("main")
	var order []string
	var mu sync.Mutex
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	root := func(c *Ctx) {
		c.Spawn(func(*Ctx) { log("first") })
		c.Sync()
		log("mid")
		c.Spawn(func(*Ctx) { log("second") })
		c.Sync()
		log("end")
	}
	if err := p.Run(root); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "mid", "second", "end"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := testSystem(t, DWS, 1)
	if s.Policy() != DWS || s.Cores() != 8 {
		t.Fatalf("Policy/Cores = %v/%d", s.Policy(), s.Cores())
	}
	p, _ := s.NewProgram("named")
	if p.Name() != "named" {
		t.Fatalf("Name = %q", p.Name())
	}
	for pol, want := range map[Policy]string{ABP: "ABP", EP: "EP", DWS: "DWS", DWSNC: "DWS-NC", Policy(9): "Policy(9)"} {
		if pol.String() != want {
			t.Errorf("%d.String() = %q", int(pol), pol.String())
		}
	}
}

// TestStatsSubCoversEveryField: a counter added to Stats and forgotten in
// Sub shows up here as a zero in the difference.
func TestStatsSubCoversEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(2)
		bv.Field(i).SetInt(1)
	}
	d := reflect.ValueOf(a.Sub(b))
	for i := 0; i < d.NumField(); i++ {
		if got := d.Field(i).Int(); got != 1 {
			t.Errorf("Sub dropped %s: difference %d, want 1", d.Type().Field(i).Name, got)
		}
	}
}
