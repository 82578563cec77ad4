package articulation

import (
	"math"
	"testing"
)

// TestFuncRegistryLinearContract pins what the query engine's selection
// pushdown relies on: RegisterLinear declares both directions monotone
// with their coefficients, and any opaque re-registration of either name
// withdraws the declaration.
func TestFuncRegistryLinearContract(t *testing.T) {
	cases := []struct {
		name, inv      string
		factor, offset float64
	}{
		{"PSToEuroFn", "EuroToPSFn", 1.6, 0},
		{"c2f", "f2c", 9.0 / 5.0, 32},
		{"neg", "negInv", -2.5, 7.25},
	}
	for _, c := range cases {
		r := NewFuncRegistry()
		if err := r.RegisterLinear(c.name, c.inv, c.factor, c.offset); err != nil {
			t.Fatal(err)
		}
		if f, o, ok := r.Linear(c.name); !ok || f != c.factor || o != c.offset {
			t.Errorf("%s: Linear = (%v, %v, %v), want (%v, %v, true)", c.name, f, o, ok, c.factor, c.offset)
		}
		wantF, wantO := 1/c.factor, -c.offset/c.factor
		if f, o, ok := r.Linear(c.inv); !ok || f != wantF || o != wantO {
			t.Errorf("%s: Linear = (%v, %v, %v), want (%v, %v, true)", c.inv, f, o, ok, wantF, wantO)
		}
		// The declared coefficients describe the registered functions.
		for _, v := range []float64{-3, 0, 1, 100} {
			fwd, _ := r.Apply(c.name, v)
			if want := v*c.factor + c.offset; fwd != want {
				t.Errorf("%s(%v) = %v, want %v", c.name, v, fwd, want)
			}
			back, _ := r.Apply(c.inv, fwd)
			if math.Abs(back-v) > 1e-9*math.Max(1, math.Abs(v)) {
				t.Errorf("%s(%s(%v)) = %v", c.inv, c.name, v, back)
			}
		}

		// An opaque Register of either name clears that name's record only.
		for _, opaque := range []string{c.name, c.inv} {
			r := NewFuncRegistry()
			if err := r.RegisterLinear(c.name, c.inv, c.factor, c.offset); err != nil {
				t.Fatal(err)
			}
			if err := r.Register(opaque, func(v float64) (float64, error) { return v, nil }); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := r.Linear(opaque); ok {
				t.Errorf("%s: still declared linear after an opaque Register", opaque)
			}
			other := c.inv
			if opaque == c.inv {
				other = c.name
			}
			if _, _, ok := r.Linear(other); !ok {
				t.Errorf("%s: declaration dropped by re-registering %s", other, opaque)
			}
		}
	}

	r := NewFuncRegistry()
	if err := r.Register("opaque", func(v float64) (float64, error) { return 2 * v, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Linear("opaque"); ok {
		t.Errorf("a plain Register is declared linear")
	}
	if _, _, ok := r.Linear("missing"); ok {
		t.Errorf("an unregistered name is declared linear")
	}
	// A coefficient whose inverse is not finite leaves that direction
	// opaque: 1/5e-324 overflows.
	if err := r.RegisterLinear("tiny", "tinyInv", 5e-324, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Linear("tiny"); !ok {
		t.Errorf("tiny: finite coefficients not declared")
	}
	if _, _, ok := r.Linear("tinyInv"); ok {
		t.Errorf("tinyInv: infinite factor declared linear")
	}
}

// TestFuncRegistryEpoch: every successful Register and RegisterLinear
// moves the epoch, the same registration repeated included; a rejected
// one (empty name, nil function, zero factor) does not. A nil registry
// reads 0.
func TestFuncRegistryEpoch(t *testing.T) {
	if ep := (*FuncRegistry)(nil).Epoch(); ep != 0 {
		t.Fatalf("nil registry epoch %d", ep)
	}
	half := func(v float64) (float64, error) { return v / 2, nil }
	r := NewFuncRegistry()
	for _, s := range []struct {
		what string
		do   func() error
		ok   bool
	}{
		{"Register", func() error { return r.Register("half", half) }, true},
		{"Register again", func() error { return r.Register("half", half) }, true},
		{"RegisterLinear", func() error { return r.RegisterLinear("c2f", "f2c", 1.8, 32) }, true},
		{"RegisterLinear without inverse", func() error { return r.RegisterLinear("c2f", "", 1.8, 32) }, true},
		{"Register empty name", func() error { return r.Register("", half) }, false},
		{"Register nil function", func() error { return r.Register("nil", nil) }, false},
		{"RegisterLinear zero factor", func() error { return r.RegisterLinear("zero", "zeroInv", 0, 1) }, false},
		{"RegisterLinear empty name", func() error { return r.RegisterLinear("", "inv", 2, 0) }, false},
	} {
		before := r.Epoch()
		err := s.do()
		if (err == nil) != s.ok {
			t.Fatalf("%s: err %v", s.what, err)
		}
		if moved := r.Epoch() != before; moved != s.ok {
			t.Errorf("%s: epoch %d → %d", s.what, before, r.Epoch())
		}
	}
}
