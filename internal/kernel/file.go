package kernel

import (
	"errors"
	"fmt"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// ErrBadFD reports an operation on an unknown file descriptor.
var ErrBadFD = errors.New("kernel: bad file descriptor")

// maxOpenPath bounds paths so a FileRec always fits its slot.
const maxOpenPath = 256

// lookupFile walks the process's open-file list for fd, decoding each
// record into *rec, and returns the address of fd's. The walk re-reads
// records from memory, so injected corruption of the fd table surfaces
// here.
func (k *Kernel) lookupFile(p *Process, fd uint32, rec *layout.FileRec) (uint64, error) {
	cur := p.D.Files
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return 0, k.oopsf(OopsBadStructure, "pid %d fd table loop", p.PID)
		}
		if err := k.readFileRec(cur, rec); err != nil {
			return 0, k.oopsf(OopsBadStructure, "pid %d file record: %v", p.PID, err)
		}
		if rec.FD == fd {
			return cur, nil
		}
		cur = rec.Next
	}
	return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
}

// readFileRec decodes the open-file record at addr into *rec through the
// kernel's record buffer: two counted reads. A sound record's path decodes
// to the string this kernel wrote there (paths), so nothing is allocated.
func (k *Kernel) readFileRec(addr uint64, rec *layout.FileRec) error {
	rec.Path = k.paths[addr]
	return rec.Read(k.M.Mem, addr, k.P.VerifyCRC, &k.recBuf)
}

// writeFileRec re-seals a file record in its slot.
func (k *Kernel) writeFileRec(addr uint64, rec *layout.FileRec) error {
	return k.writeSlot(addr, fileSlotSize, k.encode(rec.AppendRecord))
}

// openFile implements the open path: it validates flags, optionally creates
// the file, and links a new FileRec into the process's fd table.
func (k *Kernel) openFile(p *Process, path string, flags uint32) (uint32, error) {
	if len(path) > maxOpenPath {
		return 0, fmt.Errorf("kernel: path too long (%d bytes)", len(path))
	}
	exists := k.FS.Exists(path)
	if !exists {
		if flags&layout.FlagCreate == 0 {
			return 0, fmt.Errorf("kernel: open %q: no such file", path)
		}
		if err := k.FS.Create(path); err != nil {
			return 0, err
		}
	} else if flags&layout.FlagTrunc != 0 {
		if err := k.FS.Truncate(path, 0); err != nil {
			return 0, err
		}
	}
	offset := uint64(0)
	if flags&layout.FlagAppend != 0 {
		size, err := k.FS.Size(path)
		if err != nil {
			return 0, err
		}
		offset = uint64(size)
	}
	fd := p.fdNext
	p.fdNext++
	if _, err := k.linkFile(p, layout.FileRec{FD: fd, Path: path, Flags: flags, Offset: offset}); err != nil {
		return 0, err
	}
	return fd, nil
}

// linkFile writes rec into a new open-file record at the head of p's fd
// table and returns the record's address: the fd-table link that open and
// resurrection's reopen share.
func (k *Kernel) linkFile(p *Process, rec layout.FileRec) (uint64, error) {
	rec.Next = p.D.Files
	addr, err := k.Heap.Alloc(fileSlotSize)
	if err != nil {
		return 0, err
	}
	k.paths[addr] = rec.Path
	if err := k.writeFileRec(addr, &rec); err != nil {
		return 0, err
	}
	p.D.Files = addr
	return addr, k.writeProc(p)
}

// closeFile flushes the file's dirty cache pages and unlinks the record.
func (k *Kernel) closeFile(p *Process, fd uint32) error {
	var rec layout.FileRec
	addr, err := k.lookupFile(p, fd, &rec)
	if err != nil {
		return err
	}
	if err := k.flushFile(&rec, addr); err != nil {
		return err
	}
	if err := k.freeCachePages(&rec, addr); err != nil {
		return err
	}
	// Unlink from the fd list.
	if p.D.Files == addr {
		p.D.Files = rec.Next
		if err := k.writeProc(p); err != nil {
			return err
		}
	} else {
		var r layout.FileRec
		cur := p.D.Files
		for cur != 0 {
			if err := k.readFileRec(cur, &r); err != nil {
				return k.oopsf(OopsBadStructure, "pid %d file record: %v", p.PID, err)
			}
			if r.Next == addr {
				r.Next = rec.Next
				if err := k.writeFileRec(cur, &r); err != nil {
					return err
				}
				break
			}
			cur = r.Next
		}
	}
	delete(k.paths, addr)
	k.Heap.Free(addr, fileSlotSize)
	return nil
}

// readFile serves a read at the current offset, preferring cached pages so
// buffered writes are visible before they hit the disk.
func (k *Kernel) readFile(p *Process, fd uint32, buf []byte) (int, error) {
	var rec layout.FileRec
	addr, err := k.lookupFile(p, fd, &rec)
	if err != nil {
		return 0, err
	}
	n, err := k.readFileAt(&rec, int64(rec.Offset), buf)
	if err != nil {
		return 0, err
	}
	rec.Offset += uint64(n)
	if err := k.writeFileRec(addr, &rec); err != nil {
		return 0, err
	}
	return n, nil
}

// readFileAt reads through the page cache at an explicit offset.
func (k *Kernel) readFileAt(rec *layout.FileRec, off int64, buf []byte) (int, error) {
	n, err := k.FS.ReadAt(rec.Path, off, buf)
	if err != nil {
		return 0, err
	}
	// Overlay any cached pages (they may be dirtier than the disk). Also
	// extend n if cached pages lie beyond the on-disk size.
	var cp layout.CachePage
	cur := rec.CachePages
	for hops := 0; cur != 0; hops++ {
		if hops > 65536 {
			return 0, k.oopsf(OopsBadStructure, "page cache list loop for %q", rec.Path)
		}
		if cerr := k.readCachePage(cur, &cp); cerr != nil {
			return 0, k.oopsf(OopsBadStructure, "page cache record: %v", cerr)
		}
		pageStart := int64(cp.FileOff)
		pageEnd := pageStart + int64(cp.Bytes)
		readEnd := off + int64(len(buf))
		if pageEnd > off && pageStart < readEnd {
			from := pageStart
			if from < off {
				from = off
			}
			to := pageEnd
			if to > readEnd {
				to = readEnd
			}
			src := cp.Frame*phys.PageSize + uint64(from-pageStart)
			if err := k.M.Mem.ReadAt(src, buf[from-off:to-off]); err != nil {
				return 0, k.oopsf(OopsBadPageTable, "page cache frame read: %v", err)
			}
			if int(to-off) > n {
				n = int(to - off)
			}
		}
		cur = cp.Next
	}
	return n, nil
}

// writeFile buffers a write in the page cache at the current offset,
// marking pages dirty. Data does not reach the disk until fsync, close or
// the crash kernel's dirty-buffer flush during resurrection.
func (k *Kernel) writeFile(p *Process, fd uint32, data []byte) (int, error) {
	var rec layout.FileRec
	addr, err := k.lookupFile(p, fd, &rec)
	if err != nil {
		return 0, err
	}
	if rec.Flags&layout.FlagWrite == 0 {
		return 0, fmt.Errorf("kernel: fd %d not open for writing", fd)
	}
	off := int64(rec.Offset)
	written := 0
	for written < len(data) {
		pageOff := (off + int64(written)) &^ int64(phys.PageSize-1)
		inPage := int(off) + written - int(pageOff)
		n := phys.PageSize - inPage
		if n > len(data)-written {
			n = len(data) - written
		}
		cpAddr, cp, cerr := k.cachePageFor(&rec, addr, uint64(pageOff))
		if cerr != nil {
			return written, cerr
		}
		dst := cp.Frame*phys.PageSize + uint64(inPage)
		if werr := k.M.Mem.WriteAt(dst, data[written:written+n]); werr != nil {
			return written, k.oopsf(OopsBadPageTable, "page cache write: %v", werr)
		}
		cp.Dirty = true
		if uint32(inPage+n) > cp.Bytes {
			cp.Bytes = uint32(inPage + n)
		}
		if werr := k.writeCachePage(cpAddr, &cp); werr != nil {
			return written, werr
		}
		written += n
	}
	// Re-read the record in case cachePageFor updated its head.
	offset := rec.Offset + uint64(written)
	if ferr := k.readFileRec(addr, &rec); ferr != nil {
		return written, k.oopsf(OopsBadStructure, "file record reread: %v", ferr)
	}
	rec.Offset = offset
	if err := k.writeFileRec(addr, &rec); err != nil {
		return written, err
	}
	return written, nil
}

// cachePageFor finds or creates the cache page covering fileOff (which must
// be page aligned), filling new pages from disk.
func (k *Kernel) cachePageFor(rec *layout.FileRec, recAddr uint64, fileOff uint64) (uint64, layout.CachePage, error) {
	var cp layout.CachePage
	cur := rec.CachePages
	for hops := 0; cur != 0; hops++ {
		if hops > 65536 {
			return 0, cp, k.oopsf(OopsBadStructure, "page cache list loop for %q", rec.Path)
		}
		if err := k.readCachePage(cur, &cp); err != nil {
			return 0, cp, k.oopsf(OopsBadStructure, "page cache record: %v", err)
		}
		if cp.FileOff == fileOff {
			return cur, cp, nil
		}
		cur = cp.Next
	}
	frame, err := k.allocFrame(phys.FramePageCache)
	if err != nil {
		return 0, cp, err
	}
	// Fill from disk so partial-page writes preserve surrounding bytes;
	// the rest of the page is zeros, whatever the buffer last held.
	fill := k.pageBuffer(phys.PageSize)
	valid, _ := k.FS.ReadAt(rec.Path, int64(fileOff), fill)
	clear(fill[valid:])
	if err := k.M.Mem.WriteAt(phys.FrameAddr(frame), fill); err != nil {
		return 0, cp, k.oopsf(OopsBadPageTable, "page cache fill: %v", err)
	}
	cp = layout.CachePage{
		FileOff: fileOff,
		Frame:   uint64(frame),
		Bytes:   uint32(valid),
		Next:    rec.CachePages,
	}
	cpAddr, _, err := k.Heap.WriteNewRecord(k.encode(cp.AppendRecord))
	if err != nil {
		return 0, cp, err
	}
	rec.CachePages = cpAddr
	if err := k.writeFileRec(recAddr, rec); err != nil {
		return 0, cp, err
	}
	return cpAddr, cp, nil
}

// cachePageRecordSize is the framed size of every page-cache record; the
// payload is fixed-width, so freeing one needs no re-encode.
var cachePageRecordSize = len((&layout.CachePage{}).AppendRecord(nil))

// readCachePage decodes the page-cache entry at addr into *cp through the
// kernel's record buffer: two counted reads, no allocation.
func (k *Kernel) readCachePage(addr uint64, cp *layout.CachePage) error {
	return cp.Read(k.M.Mem, addr, k.P.VerifyCRC, &k.recBuf)
}

// writeCachePage re-seals the page-cache entry at addr in place.
func (k *Kernel) writeCachePage(addr uint64, cp *layout.CachePage) error {
	return k.reseal(addr, k.encode(cp.AppendRecord))
}

// pageBuffer returns n bytes of the kernel's page buffer, growing it when
// n exceeds its capacity (a corrupt Bytes field under the no-CRC ablation
// asks for more than a page; a terminal screen fits in one).
// The bytes are stale; callers overwrite them.
func (k *Kernel) pageBuffer(n int) []byte {
	if cap(k.pageBuf) < n {
		k.pageBuf = make([]byte, n)
	}
	return k.pageBuf[:n]
}

// flushFile writes the file's dirty cache pages to disk and clears their
// dirty flags — the fsync path, and the operation the crash kernel repeats
// during resurrection.
func (k *Kernel) flushFile(rec *layout.FileRec, recAddr uint64) error {
	var cp layout.CachePage
	cur := rec.CachePages
	for hops := 0; cur != 0; hops++ {
		if hops > 65536 {
			return k.oopsf(OopsBadStructure, "page cache list loop for %q", rec.Path)
		}
		if err := k.readCachePage(cur, &cp); err != nil {
			return k.oopsf(OopsBadStructure, "page cache record: %v", err)
		}
		if cp.Dirty && cp.Bytes > 0 {
			// Both diskWrite paths copy buf before returning.
			buf := k.pageBuffer(int(cp.Bytes))
			if rerr := k.M.Mem.ReadAt(cp.Frame*phys.PageSize, buf); rerr != nil {
				return k.oopsf(OopsBadPageTable, "page cache frame read: %v", rerr)
			}
			if _, werr := k.diskWrite(rec.Path, int64(cp.FileOff), buf); werr != nil {
				return werr
			}
			k.M.Clock.Advance(k.cost.DiskWriteCost(int64(cp.Bytes)))
			cp.Dirty = false
			if werr := k.writeCachePage(cur, &cp); werr != nil {
				return werr
			}
		}
		cur = cp.Next
	}
	return nil
}

// diskWrite issues one page-cache flush to the block layer: through the
// crash model when one is attached — where it stays volatile until a
// barrier — or directly to the platter otherwise.
func (k *Kernel) diskWrite(path string, off int64, buf []byte) (int, error) {
	if k.Disk != nil {
		return k.Disk.Write(path, off, buf)
	}
	return k.FS.WriteAt(path, off, buf, true)
}

// freeCachePages releases a closed file's cache frames and records.
func (k *Kernel) freeCachePages(rec *layout.FileRec, recAddr uint64) error {
	var cp layout.CachePage
	cur := rec.CachePages
	for hops := 0; cur != 0; hops++ {
		if hops > 65536 {
			return k.oopsf(OopsBadStructure, "page cache list loop for %q", rec.Path)
		}
		if err := k.readCachePage(cur, &cp); err != nil {
			return k.oopsf(OopsBadStructure, "page cache record: %v", err)
		}
		k.Alloc.Free(int(cp.Frame))
		k.Heap.Free(cur, cachePageRecordSize)
		cur = cp.Next
	}
	rec.CachePages = 0
	return k.writeFileRec(recAddr, rec)
}

// seekFile sets the file offset.
func (k *Kernel) seekFile(p *Process, fd uint32, off uint64) error {
	var rec layout.FileRec
	addr, err := k.lookupFile(p, fd, &rec)
	if err != nil {
		return err
	}
	rec.Offset = off
	return k.writeFileRec(addr, &rec)
}
