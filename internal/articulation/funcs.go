package articulation

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// ConvFunc is a normalization function attached to a functional bridge
// (§4.1 "Functional Rules"): it converts a value from the source term's
// metric space into the target term's (e.g. Dutch guilders to euros).
type ConvFunc func(float64) (float64, error)

// FuncRegistry maps bare function names to conversion functions. The
// domain expert "is expected to also supply the functions to perform the
// conversions both ways"; registering an inverse pair satisfies that.
type FuncRegistry struct {
	funcs map[string]ConvFunc
	// linear records the declared-monotone functions: name → coefficients
	// of v*factor + offset. Only RegisterLinear writes it and any plain
	// Register of the same name clears it, so a recorded name is always
	// the linear function its coefficients describe. The query engine
	// pushes range filters through these (and only these) functions.
	linear map[string]linearCoeffs
	// epoch counts successful registrations. A query engine rebuilds its
	// conversion tables and drops its plans when it moves, and the serving
	// layer's cache keys fold it in, so rows converted by a replaced
	// function are never served again.
	epoch atomic.Uint64
}

type linearCoeffs struct{ factor, offset float64 }

// NewFuncRegistry returns an empty registry.
func NewFuncRegistry() *FuncRegistry {
	return &FuncRegistry{funcs: make(map[string]ConvFunc), linear: make(map[string]linearCoeffs)}
}

// Register installs fn under name (without "()"), replacing any previous
// registration. Nil functions and empty names are rejected. fn is opaque
// to the registry: a previous linear declaration under name is dropped.
func (r *FuncRegistry) Register(name string, fn ConvFunc) error {
	if name == "" {
		return fmt.Errorf("articulation: conversion function with empty name")
	}
	if fn == nil {
		return fmt.Errorf("articulation: nil conversion function %q", name)
	}
	r.funcs[name] = fn
	delete(r.linear, name)
	r.epoch.Add(1)
	return nil
}

// RegisterLinear installs a linear conversion v*factor + offset under
// name, and its exact inverse under invName when invName is non-empty.
// Both are declared monotone: Linear reports (factor, offset) for name and
// (1/factor, -offset/factor) for invName, provided the coefficients are
// finite (a non-finite coefficient registers the function as opaque).
func (r *FuncRegistry) RegisterLinear(name, invName string, factor, offset float64) error {
	if factor == 0 {
		return fmt.Errorf("articulation: linear conversion %q with zero factor", name)
	}
	if err := r.Register(name, func(v float64) (float64, error) {
		return v*factor + offset, nil
	}); err != nil {
		return err
	}
	r.declareLinear(name, factor, offset)
	if invName == "" {
		return nil
	}
	if err := r.Register(invName, func(v float64) (float64, error) {
		return (v - offset) / factor, nil
	}); err != nil {
		return err
	}
	r.declareLinear(invName, 1/factor, -offset/factor)
	return nil
}

func (r *FuncRegistry) declareLinear(name string, factor, offset float64) {
	if factor == 0 || math.IsInf(factor, 0) || math.IsNaN(factor) || math.IsInf(offset, 0) || math.IsNaN(offset) {
		return
	}
	r.linear[name] = linearCoeffs{factor, offset}
}

// Linear reports the coefficients of a function registered by
// RegisterLinear: the function is v*factor + offset (up to rounding) and
// monotone — increasing for a positive factor, decreasing for a negative
// one. ok is false for unregistered and opaque functions.
func (r *FuncRegistry) Linear(name string) (factor, offset float64, ok bool) {
	c, ok := r.linear[name]
	return c.factor, c.offset, ok
}

// Epoch returns the registry's mutation epoch, bumped by every successful
// Register and RegisterLinear; a nil registry reads 0.
func (r *FuncRegistry) Epoch() uint64 {
	if r == nil {
		return 0
	}
	return r.epoch.Load()
}

// Has reports whether name is registered.
func (r *FuncRegistry) Has(name string) bool {
	_, ok := r.funcs[name]
	return ok
}

// Names returns registered names, sorted.
func (r *FuncRegistry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Apply runs the named conversion.
func (r *FuncRegistry) Apply(name string, v float64) (float64, error) {
	fn, ok := r.funcs[name]
	if !ok {
		return 0, fmt.Errorf("articulation: conversion function %q not registered", name)
	}
	return fn(v)
}

// Convert applies the conversion carried by a functional bridge.
func (a *Articulation) Convert(b Bridge, v float64) (float64, error) {
	if !b.Functional() {
		return 0, fmt.Errorf("articulation: bridge %v is not functional", b)
	}
	return a.Funcs.Apply(b.FuncName(), v)
}
