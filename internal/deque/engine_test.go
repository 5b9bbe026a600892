package deque

import "testing"

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindChaseLev: "chaselev", KindLocked: "locked", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewEngine(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want string
	}{
		{KindChaseLev, "*deque.Deque[int]"},
		{KindLocked, "*deque.Locked[int]"},
	} {
		e := NewEngine[int](tc.kind, 16)
		if got := typeName(e); got != tc.want {
			t.Errorf("NewEngine(%v) = %s, want %s", tc.kind, got, tc.want)
		}
		// Smoke the Engine surface through the interface.
		v := 7
		e.Push(&v)
		if e.Empty() || e.Len() != 1 {
			t.Errorf("%v: Len after Push = %d, want 1", tc.kind, e.Len())
		}
		if got := e.Pop(); got != &v {
			t.Errorf("%v: Pop = %v, want pushed pointer", tc.kind, got)
		}
		if !e.Empty() {
			t.Errorf("%v: not empty after Pop", tc.kind)
		}
		if e.Steal() != nil {
			t.Errorf("%v: Steal on empty != nil", tc.kind)
		}
	}
	t.Run("unknown-kind-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("NewEngine(Kind(9)) did not panic")
			}
		}()
		NewEngine[int](Kind(9), 8)
	})
}

func typeName(v any) string {
	switch v.(type) {
	case *Deque[int]:
		return "*deque.Deque[int]"
	case *Locked[int]:
		return "*deque.Locked[int]"
	}
	return "?"
}
