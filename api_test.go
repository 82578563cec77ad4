package onion_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	onion "repro"
)

// TestQueryEntryPoints pins the query system's entry points: one execute
// and one explain entry per layer, plus the System's parse-and-execute
// conveniences and the epoch key the serving cache reads. Any other
// method named like a query entry would be a rung on a ladder of
// wrappers, each adding one argument to the one below.
func TestQueryEntryPoints(t *testing.T) {
	isEntry := func(name string) bool {
		for _, prefix := range []string{"Query", "Execute", "Explain", "Do"} {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return name == "Answer"
	}
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[*onion.QueryEngine](), []string{"Execute", "Explain"}},
		{reflect.TypeFor[*onion.System](), []string{"Execute", "Explain", "Query", "QueryEpochKey", "QueryWith"}},
		{reflect.TypeFor[*onion.QueryService](), []string{"Answer"}},
	} {
		var got []string
		for i := range c.typ.NumMethod() {
			if name := c.typ.Method(i).Name; isEntry(name) {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v query entry points = %v, want %v", c.typ, got, c.want)
		}
	}
}
