package deque

import "fmt"

// Engine is the owner/thief surface both deque implementations provide,
// so tests and benchmarks can drive either through one harness. The
// owner goroutine calls Push and Pop; any goroutine may call Steal, Len
// and Empty. nil is the "empty / failed attempt" sentinel of Pop and
// Steal, so Push(nil) panics. Both implementations are strict: every
// pushed element is returned by exactly one Pop or Steal.
type Engine[T any] interface {
	Push(v *T)
	Pop() *T
	Steal() *T
	Len() int
	Empty() bool
}

// Kind names a deque implementation.
type Kind uint8

const (
	// KindChaseLev is the lock-free Chase–Lev deque every worker owns.
	KindChaseLev Kind = iota
	// KindLocked is the mutex-protected reference implementation.
	KindLocked
)

// String returns the implementation name.
func (k Kind) String() string {
	switch k {
	case KindChaseLev:
		return "chaselev"
	case KindLocked:
		return "locked"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds returns both implementations, for differential harnesses.
func Kinds() []Kind { return []Kind{KindChaseLev, KindLocked} }

// NewEngine constructs an empty deque of the given kind; an unknown kind
// panics.
func NewEngine[T any](k Kind, capacity int) Engine[T] {
	switch k {
	case KindChaseLev:
		return New[T](capacity)
	case KindLocked:
		return NewLocked[T](capacity)
	}
	panic(fmt.Sprintf("deque: NewEngine(%v): unknown kind", k))
}
