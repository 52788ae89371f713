package cluster

import (
	"fmt"
	"testing"
)

func fleet(n int) []string {
	m := make([]string, n)
	for i := range m {
		m[i] = fmt.Sprintf("http://10.0.0.%d:8787", i+1)
	}
	return m
}

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		// The shape of real cache keys: kind prefix + hex hash.
		ks[i] = fmt.Sprintf("cl-%016x", uint64(i)*2654435761)
	}
	return ks
}

// Ownership is a pure function of (key, membership): stable across calls
// and independent of member order.
func TestRendezvousDeterministic(t *testing.T) {
	members := fleet(4)
	shuffled := []string{members[2], members[0], members[3], members[1]}
	for _, k := range keys(50) {
		a := rendezvousOwner(k, members)
		b := rendezvousOwner(k, shuffled)
		if a != b {
			t.Fatalf("owner of %s depends on member order: %s vs %s", k, a, b)
		}
		if a != rendezvousOwner(k, members) {
			t.Fatalf("owner of %s unstable across calls", k)
		}
	}
	if got := rendezvousOwner("cl-abc", members[:1]); got != members[0] {
		t.Fatalf("single-member ring owner %s", got)
	}
}

// Rendezvous balances without virtual nodes: over many keys every member
// owns a reasonable share (within a factor ~2 of fair at these counts).
func TestRendezvousBalance(t *testing.T) {
	members := fleet(4)
	counts := make(map[string]int)
	ks := keys(4000)
	for _, k := range ks {
		counts[rendezvousOwner(k, members)]++
	}
	fair := len(ks) / len(members)
	for _, m := range members {
		if c := counts[m]; c < fair/2 || c > 2*fair {
			t.Fatalf("member %s owns %d of %d keys (fair %d): unbalanced", m, c, len(ks), fair)
		}
	}
}

// Minimal disruption — the property the failure detector leans on: when a
// member leaves, only the keys it owned change owner; when it rejoins,
// exactly the original map comes back.
func TestRendezvousMinimalDisruption(t *testing.T) {
	members := fleet(4)
	gone := members[1]
	reduced := append(append([]string(nil), members[:1]...), members[2:]...)
	moved := 0
	for _, k := range keys(2000) {
		before := rendezvousOwner(k, members)
		after := rendezvousOwner(k, reduced)
		if before != gone && after != before {
			t.Fatalf("key %s moved %s -> %s although its owner never left", k, before, after)
		}
		if before == gone {
			moved++
			if after == gone {
				t.Fatalf("key %s still owned by the departed member", k)
			}
		}
		if back := rendezvousOwner(k, members); back != before {
			t.Fatalf("key %s did not return to %s on rejoin", k, before)
		}
	}
	if moved == 0 {
		t.Fatal("departed member owned no keys: balance test should have caught this")
	}
}
