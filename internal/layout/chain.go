package layout

import "slices"

// LoopReason is the Reason of the CorruptionError a Chain walk returns at
// the first address it meets a second time.
const LoopReason = "chain loops back"

// Chain is the one walker over a chain of kernel records linked by
// address: the process list and, per process, the fd, region, shm, pipe and
// socket lists and each file's page-cache chain. It keeps the addresses a
// walk has visited, the first ones inline and the rest in a set it keeps
// for the next walk, so a short walk allocates nothing and a long one
// reuses the set an earlier one grew. Its zero value is ready; one Chain
// serves one walk at a time, so a nested walk needs a Chain of its own.
type Chain struct {
	near [16]uint64
	far  map[uint64]struct{}
}

// Walk follows the chain from head: visit decodes the record at addr and
// returns the next address, 0 ending the chain. The walk stops at the end
// of the chain; at the first record visit fails on, returning visit's
// error; or at the first address it meets again, returning a
// *CorruptionError for a type-t record with Reason LoopReason. A loop is
// corruption, found after the records before it, and visit has seen each
// of those once. Walk returns how many records visit decoded.
func (c *Chain) Walk(head uint64, t Type, visit func(addr uint64) (next uint64, err error)) (int, error) {
	if len(c.far) > 0 {
		clear(c.far)
	}
	n := 0
	for cur := head; cur != 0; n++ {
		if c.seen(n, cur) {
			return n, &CorruptionError{Addr: cur, Want: t, Reason: LoopReason}
		}
		next, err := visit(cur)
		if err != nil {
			return n, err
		}
		cur = next
	}
	return n, nil
}

// seen reports whether addr is one of the n addresses this walk visited,
// and records it as the next one if not.
func (c *Chain) seen(n int, addr uint64) bool {
	if slices.Contains(c.near[:min(n, len(c.near))], addr) {
		return true
	}
	if n < len(c.near) {
		c.near[n] = addr
		return false
	}
	if _, ok := c.far[addr]; ok {
		return true
	}
	if c.far == nil {
		c.far = make(map[uint64]struct{})
	}
	c.far[addr] = struct{}{}
	return false
}
