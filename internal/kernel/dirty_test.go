package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"otherworld/internal/layout"
)

// dirtySetup boots a kernel with two processes holding dirty page-cache
// pages: proc A has two files (one spanning two pages), proc B has one.
func dirtySetup(t *testing.T) (*Kernel, *Env, *Env) {
	t.Helper()
	k := bootTestKernel(t, nil)
	pa, err := k.CreateProcess("a", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := k.CreateProcess("b", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	ea := &Env{K: k, P: pa}
	eb := &Env{K: k, P: pb}
	fd1, err := ea.Open("/a/one", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.WriteFile(fd1, bytes.Repeat([]byte{'x'}, 5000)); err != nil {
		t.Fatal(err)
	}
	fd2, err := ea.Open("/a/two", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.WriteFile(fd2, []byte("second file")); err != nil {
		t.Fatal(err)
	}
	fd3, err := eb.Open("/b/one", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eb.WriteFile(fd3, []byte("other proc")); err != nil {
		t.Fatal(err)
	}
	return k, ea, eb
}

// TestDirtyPagesEnumeratesAndOrdersDeterministically: the crash model's
// orphan set must be complete (every unflushed page present with its data)
// and in a stable order — OrphanFlush permutes it with the machine seed, so
// a wobbly enumeration order would make crash consequences unreplayable.
func TestDirtyPagesEnumeratesAndOrdersDeterministically(t *testing.T) {
	k, _, _ := dirtySetup(t)
	pages := k.DirtyPages()
	if len(pages) != 4 {
		t.Fatalf("want 4 dirty pages (2+1+1), got %d: %+v", len(pages), pages)
	}
	byKey := map[string]int{}
	for _, pg := range pages {
		byKey[pg.Path]++
	}
	if byKey["/a/one"] != 2 || byKey["/a/two"] != 1 || byKey["/b/one"] != 1 {
		t.Fatalf("wrong page multiset: %v", byKey)
	}
	for _, pg := range pages {
		if pg.Path == "/a/one" && pg.Off == 0 && !bytes.Equal(pg.Data, bytes.Repeat([]byte{'x'}, 4096)) {
			t.Fatalf("first page of /a/one holds wrong bytes")
		}
		if pg.Path == "/b/one" && string(pg.Data) != "other proc" {
			t.Fatalf("/b/one data = %q", pg.Data)
		}
	}
	// Same kernel, repeated calls: identical slice.
	if again := k.DirtyPages(); !reflect.DeepEqual(pages, again) {
		t.Fatalf("repeated enumeration differs:\n%+v\nvs\n%+v", pages, again)
	}
	// A freshly built identical kernel: identical slice.
	k2, _, _ := dirtySetup(t)
	if other := k2.DirtyPages(); !reflect.DeepEqual(pages, other) {
		t.Fatalf("rebuilt kernel enumerates differently:\n%+v\nvs\n%+v", pages, other)
	}
}

// TestDirtyPagesDedupKeepsFirstOccurrence: two processes caching the same
// (path, offset) contribute one orphan — the first in walk order (process
// creation order) — never two conflicting flushes of the same page.
func TestDirtyPagesDedupKeepsFirstOccurrence(t *testing.T) {
	k := bootTestKernel(t, nil)
	pa, _ := k.CreateProcess("a", "test-prog")
	pb, _ := k.CreateProcess("b", "test-prog")
	ea := &Env{K: k, P: pa}
	eb := &Env{K: k, P: pb}
	fda, err := ea.Open("/shared", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.WriteFile(fda, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	fdb, err := eb.Open("/shared", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eb.WriteFile(fdb, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	var shared []string
	for _, pg := range k.DirtyPages() {
		if pg.Path == "/shared" && pg.Off == 0 {
			shared = append(shared, string(pg.Data))
		}
	}
	if len(shared) != 1 {
		t.Fatalf("(path, off) deduplication failed: %v", shared)
	}
	if shared[0] != "AAAA" {
		t.Fatalf("dedup kept %q, want the first process's page \"AAAA\"", shared[0])
	}
}

// TestDirtyPagesSkipsCleanPages: fsync cleans a descriptor's pages; only
// still-dirty pages are orphan candidates.
func TestDirtyPagesSkipsCleanPages(t *testing.T) {
	k := bootTestKernel(t, nil)
	p, err := k.CreateProcess("a", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{K: k, P: p}
	fdDirty, err := env.Open("/dirty", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fdDirty, []byte("unflushed")); err != nil {
		t.Fatal(err)
	}
	fdClean, err := env.Open("/clean", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fdClean, []byte("flushed")); err != nil {
		t.Fatal(err)
	}
	if err := env.Fsync(fdClean); err != nil {
		t.Fatal(err)
	}
	pages := k.DirtyPages()
	if len(pages) != 1 || pages[0].Path != "/dirty" {
		t.Fatalf("want only /dirty enumerated, got %+v", pages)
	}
}

// TestDirtyPagesCorruptRecordEndsWalkSilently: DirtyPages runs against the
// DEAD kernel's records, so a corrupt record must not oops — the pages
// behind it are silently lost (a real drive never sees them) while every
// other process's pages survive enumeration.
func TestDirtyPagesCorruptRecordEndsWalkSilently(t *testing.T) {
	k, _, _ := dirtySetup(t)
	// Scribble over process a's first file record header.
	pa := k.Procs()[0]
	var rec layout.FileRec
	var buf []byte
	if err := rec.Read(k.M.Mem, pa.D.Files, k.P.VerifyCRC, &buf); err != nil {
		t.Fatal(err)
	}
	if err := k.M.Mem.WriteAt(rec.CachePages, bytes.Repeat([]byte{0xFF}, 32)); err != nil {
		t.Fatal(err)
	}
	pages := k.DirtyPages()
	// The clobbered file's pages are gone; process b's page must survive.
	var sawB bool
	for _, pg := range pages {
		if pg.Path == rec.Path {
			t.Fatalf("pages behind a corrupt record still enumerated: %+v", pg)
		}
		if pg.Path == "/b/one" {
			sawB = true
		}
	}
	if !sawB {
		t.Fatal("corruption in one process wiped out another process's pages")
	}
}
