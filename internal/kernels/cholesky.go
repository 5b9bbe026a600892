package kernels

import (
	"math"

	"dws/internal/rt"
)

// CholeskySeq factorises the symmetric positive-definite n×n row-major
// matrix a in place into its lower-triangular Cholesky factor L (the
// upper triangle is left untouched). It returns false if a is not
// positive definite.
func CholeskySeq(a []float64, n int) bool {
	for k := 0; k < n; k++ {
		d := a[k*n+k]
		if d <= 0 {
			return false
		}
		d = math.Sqrt(d)
		a[k*n+k] = d
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= d
		}
		for j := k + 1; j < n; j++ {
			ajk := a[j*n+k]
			for i := j; i < n; i++ {
				a[i*n+j] -= a[i*n+k] * ajk
			}
		}
	}
	return true
}

// cholPanel is one spawned chunk of a trailing update: columns [lo, hi)
// of step k.
type cholPanel struct {
	a            []float64
	n, k, lo, hi int
}

func (p *cholPanel) Run(*rt.Ctx) {
	a, n, k := p.a, p.n, p.k
	for j := p.lo; j < p.hi; j++ {
		ajk := a[j*n+k]
		for i := j; i < n; i++ {
			a[i*n+j] -= a[i*n+k] * ajk
		}
	}
}

// CholeskyTask returns a task performing the same right-looking
// factorisation with the trailing update parallelised over column panels
// (a barrier per step, with the panel count shrinking as k advances —
// the simulator's p-3 profile). ok reports positive definiteness after
// the task completes.
//
// Every step spawns its panels out of one slab (Sync has returned before
// the next step rewrites it), so a run allocates once, not once a panel.
func CholeskyTask(a []float64, n int, ok *bool) rt.Task {
	return func(c *rt.Ctx) {
		*ok = true
		panels := make([]cholPanel, 0, (n+grain-1)/grain)
		for k := 0; k < n; k++ {
			d := a[k*n+k]
			if d <= 0 {
				*ok = false
				return
			}
			d = math.Sqrt(d)
			a[k*n+k] = d
			for i := k + 1; i < n; i++ {
				a[i*n+k] /= d
			}
			// Parallel trailing update: disjoint column ranges.
			panels = panels[:0]
			chunks(n-(k+1), func(lo, hi int) {
				panels = append(panels, cholPanel{a, n, k, lo + k + 1, hi + k + 1})
				c.SpawnRunner(&panels[len(panels)-1])
			})
			c.Sync()
		}
	}
}

// CholeskyResidual returns the max-norm of (L·Lᵀ − orig) over the lower
// triangle, where l holds the factor produced by the routines above.
func CholeskyResidual(l, orig []float64, n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i*n+k] * l[j*n+k]
			}
			if d := math.Abs(s - orig[i*n+j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
