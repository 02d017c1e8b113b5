package main

import (
	"strings"
	"testing"
)

// TestCheckFlags: every flag core.Config.Validate does not own is checked
// before any data is generated, with the flag named in the error.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		scale, eta, xi float64
		shards         int
	}
	ok := flags{scale: 1, eta: 0.5, xi: 0.3, shards: 1}
	check := func(f flags) error {
		return checkFlags(f.scale, f.eta, f.xi, f.shards)
	}
	for _, f := range []flags{
		ok,
		{scale: 0.01, eta: 1, xi: 0, shards: 0},
		{scale: 10, eta: 0.01, xi: 1, shards: 64},
		{scale: 1, eta: 0.5, xi: 0.3, shards: 4},
	} {
		if err := check(f); err != nil {
			t.Errorf("checkFlags(%+v) = %v, want nil", f, err)
		}
	}
	cases := []struct {
		name string
		mut  func(*flags)
		want string
	}{
		{"scale", func(f *flags) { f.scale = 0 }, "-scale"},
		{"eta", func(f *flags) { f.eta = 0 }, "-eta"},
		{"xi", func(f *flags) { f.xi = 1.5 }, "-xi"},
		{"shards negative", func(f *flags) { f.shards = -1 }, "-shards"},
		{"shards huge", func(f *flags) { f.shards = 65 }, "-shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mut(&f)
			if err := check(f); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkFlags(%+v) = %v, want mention of %s", f, err, tc.want)
			}
		})
	}
}
