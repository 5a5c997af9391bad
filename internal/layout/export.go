package layout

// Exported payload encoders. The kernel re-seals records in place when
// fixed-width fields change (offsets, list links, scheduling state), so it
// needs the raw payload bytes without the framing that WriteRecord adds.

// EncodePayload returns the record payload for a globals anchor.
func (g *Globals) EncodePayload() []byte { return g.encode() }

// EncodePayload returns the record payload for a process descriptor.
func (p *Proc) EncodePayload() []byte { return p.encode() }

// AppendPayload appends the record payload for a process descriptor to dst,
// a record image for SealInto.
func (p *Proc) AppendPayload(dst []byte) []byte { return p.appendTo(dst) }

// EncodePayload returns the record payload for a memory-region descriptor.
func (v *MemRegion) EncodePayload() []byte { return v.encode() }

// EncodePayload returns the record payload for an open-file record.
func (f *FileRec) EncodePayload() []byte { return f.encode() }

// AppendPayload appends the record payload for an open-file record to dst,
// a record image for SealInto.
func (f *FileRec) AppendPayload(dst []byte) []byte { return f.appendTo(dst) }

// EncodePayload returns the record payload for the swap-area table.
func (t *SwapTable) EncodePayload() []byte { return t.encode() }

// EncodePayload returns the record payload for a terminal record.
func (t *Terminal) EncodePayload() []byte { return t.encode() }

// EncodePayload returns the record payload for a signal table.
func (s *Signals) EncodePayload() []byte { return s.encode() }

// EncodePayload returns the record payload for a shared-memory descriptor.
func (s *Shm) EncodePayload() []byte { return s.encode() }

// EncodePayload returns the record payload for a pipe descriptor.
func (p *Pipe) EncodePayload() []byte { return p.encode() }

// EncodePayload returns the record payload for a socket descriptor.
func (s *Socket) EncodePayload() []byte { return s.encode() }

// EncodePayload returns the record payload for a page-cache entry.
func (c *CachePage) EncodePayload() []byte { return c.encode() }
