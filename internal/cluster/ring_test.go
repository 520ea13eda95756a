package cluster

import (
	"fmt"
	"testing"
)

func TestClusterRingDeterminism(t *testing.T) {
	a := NewRing([]string{"c:1", "a:1", "b:1"})
	b := NewRing([]string{"b:1", "a:1", "c:1", "a:1", ""})
	if got, want := fmt.Sprint(a.Members()), fmt.Sprint(b.Members()); got != want {
		t.Fatalf("members differ: %s vs %s", got, want)
	}
	for i := 0; i < 200; i++ {
		key := RouteKey("pair", fmt.Sprint(i))
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %d: owners differ across identical rings", i)
		}
		ra, rb := a.Ranked(key), b.Ranked(key)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("key %d: rankings differ across identical rings", i)
		}
		if ra[0] != a.Owner(key) {
			t.Fatalf("key %d: Ranked[0] %q != Owner %q", i, ra[0], a.Owner(key))
		}
		if len(ra) != a.Len() {
			t.Fatalf("key %d: Ranked returned %d members, want %d", i, len(ra), a.Len())
		}
	}
}

// Removing one member must move only the keys it owned: rendezvous
// hashing's minimal-rebalance property, which is what makes rolling
// membership changes cheap to re-warm.
func TestClusterRingRebalanceMinimal(t *testing.T) {
	members := []string{"n1:1", "n2:1", "n3:1", "n4:1", "n5:1"}
	full := NewRing(members)
	without := NewRing(members[:4]) // n5 departs

	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		key := RouteKey("rebalance", fmt.Sprint(i))
		before, after := full.Owner(key), without.Owner(key)
		if before == "n5:1" {
			continue // its keys must move somewhere
		}
		if before != after {
			moved++
		} else {
			kept++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the departed member changed owner (kept %d)", moved, kept)
	}
}

func TestClusterRingShares(t *testing.T) {
	r := NewRing([]string{"n1:1", "n2:1", "n3:1"})
	shares := r.Shares(4096)
	sum := 0.0
	for m, s := range shares {
		sum += s
		if s < 0.15 || s > 0.55 {
			t.Errorf("member %s owns %.1f%% of sampled keys — badly unbalanced", m, 100*s)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f, want 1", sum)
	}
	if NewRing(nil).Shares(100) != nil {
		t.Fatal("empty ring returned non-nil shares")
	}
	if NewRing(nil).Owner(RouteKey("x")) != "" {
		t.Fatal("empty ring returned an owner")
	}
}

func TestClusterRouteKeyDistinguishesParts(t *testing.T) {
	a := RouteKey("ab", "c")
	b := RouteKey("a", "bc")
	if string(a) == string(b) {
		t.Fatal("RouteKey collides across part boundaries")
	}
	if string(RouteKey("x", "y")) != string(RouteKey("x", "y")) {
		t.Fatal("RouteKey is not deterministic")
	}
}

// TestClusterSplitMembers pins the member-list syntax every -cluster
// flag and fleet upstream shares: trimmed, empties dropped, order and
// duplicates left for NewRing.
func TestClusterSplitMembers(t *testing.T) {
	for in, want := range map[string]string{
		"":                   "[]",
		"a:1":                "[a:1]",
		" b:1 , a:1,,b:1 , ": "[b:1 a:1 b:1]",
		",,":                 "[]",
	} {
		if got := fmt.Sprint(SplitMembers(in)); got != want {
			t.Errorf("SplitMembers(%q) = %s, want %s", in, got, want)
		}
	}
}
