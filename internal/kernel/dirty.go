package kernel

import (
	"otherworld/internal/disk"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// DirtyPages enumerates every dirty page-cache page of every live
// process's open files, in deterministic order (process creation order,
// then fd-list order, then page-list order), deduplicated by (path,
// offset) keeping the first occurrence. The failure-handling path calls it
// on the dead kernel to learn what the block layer may flush on its own
// after the crash (the crash model's orphan set), so unlike flushFile it
// must not oops: corrupt records end their list's walk silently — a page
// behind a corrupt record is simply lost, which is what a real drive sees.
func (k *Kernel) DirtyPages() []disk.DirtyPage {
	var out []disk.DirtyPage
	type pageKey struct {
		path string
		off  uint64
	}
	seen := make(map[pageKey]struct{})
	var rec layout.FileRec
	for _, p := range k.Procs() {
		cur := p.D.Files
		for hops := 0; cur != 0; hops++ {
			if hops > 4096 {
				break
			}
			if err := k.readFileRec(cur, &rec); err != nil {
				break
			}
			var page layout.CachePage
			cp := rec.CachePages
			for chops := 0; cp != 0; chops++ {
				if chops > 65536 {
					break
				}
				if perr := k.readCachePage(cp, &page); perr != nil {
					break
				}
				if page.Dirty && page.Bytes > 0 && page.Bytes <= phys.PageSize {
					key := pageKey{path: rec.Path, off: page.FileOff}
					if _, dup := seen[key]; !dup {
						seen[key] = struct{}{}
						buf := make([]byte, page.Bytes)
						if rerr := k.M.Mem.ReadAt(page.Frame*phys.PageSize, buf); rerr == nil {
							out = append(out, disk.DirtyPage{
								Path: rec.Path,
								Off:  int64(page.FileOff),
								Data: buf,
							})
						}
					}
				}
				cp = page.Next
			}
			cur = rec.Next
		}
	}
	return out
}
