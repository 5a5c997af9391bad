package layout

// Exported payload encoders. The kernel re-seals records in place when
// fixed-width fields change (offsets, list links, scheduling state), so it
// needs the raw payload bytes without the framing that WriteRecord adds.
// Each record has two: EncodePayload returns fresh bytes, and
// AppendPayload appends the same bytes to dst, a record image for SealInto,
// so a caller that reuses one image re-seals without allocating.

// EncodePayload returns the record payload for a globals anchor.
func (g *Globals) EncodePayload() []byte { return g.appendTo(nil) }

// AppendPayload appends the record payload for a globals anchor to dst.
func (g *Globals) AppendPayload(dst []byte) []byte { return g.appendTo(dst) }

// EncodePayload returns the record payload for a process descriptor.
func (p *Proc) EncodePayload() []byte { return p.appendTo(nil) }

// AppendPayload appends the record payload for a process descriptor to dst.
func (p *Proc) AppendPayload(dst []byte) []byte { return p.appendTo(dst) }

// EncodePayload returns the record payload for a memory-region descriptor.
func (v *MemRegion) EncodePayload() []byte { return v.appendTo(nil) }

// AppendPayload appends the record payload for a memory-region descriptor
// to dst.
func (v *MemRegion) AppendPayload(dst []byte) []byte { return v.appendTo(dst) }

// EncodePayload returns the record payload for an open-file record.
func (f *FileRec) EncodePayload() []byte { return f.appendTo(nil) }

// AppendPayload appends the record payload for an open-file record to dst.
func (f *FileRec) AppendPayload(dst []byte) []byte { return f.appendTo(dst) }

// EncodePayload returns the record payload for the swap-area table.
func (t *SwapTable) EncodePayload() []byte { return t.appendTo(nil) }

// AppendPayload appends the record payload for the swap-area table to dst.
func (t *SwapTable) AppendPayload(dst []byte) []byte { return t.appendTo(dst) }

// EncodePayload returns the record payload for a terminal record.
func (t *Terminal) EncodePayload() []byte { return t.appendTo(nil) }

// AppendPayload appends the record payload for a terminal record to dst.
func (t *Terminal) AppendPayload(dst []byte) []byte { return t.appendTo(dst) }

// EncodePayload returns the record payload for a signal table.
func (s *Signals) EncodePayload() []byte { return s.appendTo(nil) }

// AppendPayload appends the record payload for a signal table to dst.
func (s *Signals) AppendPayload(dst []byte) []byte { return s.appendTo(dst) }

// EncodePayload returns the record payload for a shared-memory descriptor.
func (s *Shm) EncodePayload() []byte { return s.appendTo(nil) }

// AppendPayload appends the record payload for a shared-memory descriptor
// to dst.
func (s *Shm) AppendPayload(dst []byte) []byte { return s.appendTo(dst) }

// EncodePayload returns the record payload for a pipe descriptor.
func (p *Pipe) EncodePayload() []byte { return p.appendTo(nil) }

// AppendPayload appends the record payload for a pipe descriptor to dst.
func (p *Pipe) AppendPayload(dst []byte) []byte { return p.appendTo(dst) }

// EncodePayload returns the record payload for a socket descriptor.
func (s *Socket) EncodePayload() []byte { return s.appendTo(nil) }

// AppendPayload appends the record payload for a socket descriptor to dst.
func (s *Socket) AppendPayload(dst []byte) []byte { return s.appendTo(dst) }

// EncodePayload returns the record payload for a page-cache entry.
func (c *CachePage) EncodePayload() []byte { return c.appendTo(nil) }

// AppendPayload appends the record payload for a page-cache entry to dst.
func (c *CachePage) AppendPayload(dst []byte) []byte { return c.appendTo(dst) }
