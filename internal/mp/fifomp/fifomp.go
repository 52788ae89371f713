// Package fifomp is the strict arrival-order transport. Section 4 of the
// paper notes: "On the SP2, MPL requires that messages be received in the
// order in which they arrive, but this does not create difficulties."
// This transport enforces exactly that restriction — probes and receives
// may only match the message at the head of the mailbox — so the test
// suite can prove the PLINGER protocol is compatible with MPL semantics.
package fifomp

import (
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
)

// World is a set of connected strict-FIFO endpoints: the in-process world
// of chanmp on mailboxes that only match their head message.
type World = chanmp.World

// New creates a world of n strict-FIFO endpoints; rank 0 is the master.
func New(n int) (*World, []mp.Endpoint, error) {
	return chanmp.NewWithQueues(n, mp.NewStrictFIFOQueue)
}
