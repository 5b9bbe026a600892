package kernels

import "dws/internal/rt"

// Live counterparts of the simulator's synthetic shapes (internal/
// workload/synthetic.go), so scenario traces that name "s-1"…"s-3" replay
// against a real dwsd as well as the virtual clock. The work body is a
// compute-bound polynomial recurrence (spinWork) rather than a kernel
// borrowed from Table 2, keeping the shapes' defining property — their
// demand profile — independent of any particular benchmark's memory
// behaviour.

// spinUnit is calibrated so one unit is a few microseconds of arithmetic;
// NewTask sizes below multiply it to land in the catalog's usual
// hundreds-of-milliseconds range at size 1.0.
const spinUnit = 1000

// spinWork burns n units of deterministic floating-point work. The value
// depends on every iteration and is checked at the end, so the loop
// cannot be optimised away — and a task shares no state with another.
func spinWork(n int) {
	x := 1.000001
	for i := 0; i < n*spinUnit; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x -= 1
		}
	}
	if x <= 1 {
		panic("kernels: spinWork left (1, 2]")
	}
}

// units scales a base unit count by size with a floor of 1.
func units(base int, size float64) int {
	if size <= 0 {
		size = 1.0
	}
	n := int(float64(base) * size)
	if n < 1 {
		n = 1
	}
	return n
}

// WideTask mirrors s-1: a binary divide-and-conquer whose leaf count far
// exceeds any machine width, so the program always demands every core.
func WideTask(depth, leafUnits int) rt.Task {
	var divide func(level int) rt.Task
	divide = func(level int) rt.Task {
		return func(c *rt.Ctx) {
			if level == 0 {
				spinWork(leafUnits)
				return
			}
			c.Spawn(divide(level - 1))
			c.Spawn(divide(level - 1))
		}
	}
	return divide(depth)
}

// SerialishTask mirrors s-2: a small parallel prologue followed by one
// long serial section — the "wants one core" extreme.
func SerialishTask(prologueWidth, prologueUnits, serialUnits int) rt.Task {
	return func(c *rt.Ctx) {
		for i := 0; i < prologueWidth; i++ {
			c.Spawn(func(*rt.Ctx) { spinWork(prologueUnits) })
		}
		c.Sync()
		spinWork(serialUnits)
	}
}

// BurstyTask mirrors s-3: cycles alternating a wide barriered phase with a
// near-serial phase, so core demand oscillates on a coarse time scale.
func BurstyTask(cycles, width, leafUnits, serialUnits int) rt.Task {
	return func(c *rt.Ctx) {
		for cy := 0; cy < cycles; cy++ {
			for i := 0; i < width; i++ {
				c.Spawn(func(*rt.Ctx) { spinWork(leafUnits) })
			}
			c.Sync()
			spinWork(serialUnits)
		}
	}
}

// synthetics returns the live synthetic shapes as catalog entries.
func synthetics() []Spec {
	return []Spec{
		{Name: "Wide", NewTask: func(size float64) rt.Task {
			return WideTask(9, units(150, size))
		}},
		{Name: "Serialish", NewTask: func(size float64) rt.Task {
			return SerialishTask(32, units(40, size), units(60_000, size))
		}},
		{Name: "Bursty", NewTask: func(size float64) rt.Task {
			return BurstyTask(12, 48, units(60, size), units(2500, size))
		}},
	}
}
