package workloads

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryTableIIOrder(t *testing.T) {
	want := []string{"DOP", "Greeks", "Swaptions", "Genetic", "Photon", "MC-integ", "PI", "Bandit"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v (Table II order)", names, want)
	}
	for _, n := range want {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != n {
			t.Errorf("ByName(%q).Name = %q", n, w.Name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := ByName("no-such-workload"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown name: %v", err)
	}
}
