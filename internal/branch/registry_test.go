package branch

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	want := []string{"tournament", "tage-sc-l", "always-taken", "never-taken"}
	if names := Names(); !slices.Equal(names, want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	for _, name := range want {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	// Factories return fresh instances, not shared state.
	a, _ := New("tournament")
	b, _ := New("tournament")
	if a == b {
		t.Error("factory returned a shared predictor instance")
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("no-such-predictor"); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("unknown name: %v", err)
	}
}
