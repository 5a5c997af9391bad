package apps

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// WALKV is a write-ahead-logging KV store built to expose exactly the crash
// class FIRST's limitations doc describes: a transaction appends three
// page-sized records and a COMMIT record to its log, and durability hinges
// on where the fsyncs sit. The fixed protocol is
//
//	append r1,r2,r3 → fsync → append COMMIT → fsync → ack
//
// and the buggy variant reproduces FIRST's intentional commit-before-durable
// bug by dropping the first fsync:
//
//	append r1,r2,r3 → append COMMIT → fsync → ack
//
// With the block-layer crash model armed, a kernel crash between the COMMIT
// append and its fsync leaves four dirty page-cache pages whose flush order
// is undefined: the drive may persist the COMMIT page without all record
// pages — a committed-but-incomplete transaction recovery then trusts. The
// fixed protocol is immune: by the time COMMIT is dirty, the records are
// already on the platter.
//
// Records are exactly one page each so the COMMIT and its records live on
// different page-cache pages; same-page records would hide the reorder.

// WALPort is the server's listen port.
const WALPort uint16 = 7001

// WALPath is the log file, exported so the data-invariant checker can read
// the platter image directly.
const WALPath = "/var/lib/walkv/wal.log"

// WALRecordSize is the page-sized on-disk record slot.
const WALRecordSize = 4096

// WALRecsPerTxn is the number of data records per transaction (plus one
// COMMIT record).
const WALRecsPerTxn = 3

// On-disk record kinds.
const (
	WALKindRecord uint64 = 1
	WALKindCommit uint64 = 2
)

const walRecMagic = 0x57414C5245433031 // "WALREC01"

// Record header word offsets; the CRC of bytes [0, walCRCOff) sits
// little-endian at walCRCOff.
const (
	walRecMagicOff = 8 * iota
	walRecKindOff
	walRecTxnOff
	walRecSeqOff
	walRecLenOff
	walRecPayloadOff
)

const walCRCOff = WALRecordSize - 4

// WALPayloadCap bounds a record payload.
const WALPayloadCap = 1024

// Process-image layout.
const (
	walHdrVA = 0x300000
	walBufVA = 0x301000
)

// Header word offsets.
const (
	walMagicOff = 8 * iota
	walModeOff
	walPhaseOff
	walTxnOff     // in-flight transaction id
	walNextTxnOff // next id to assign
	walAppliedOff // committed transactions applied to the store
	walOpsOff     // acknowledged client operations
	walFDOff
	walEndOff // append position in the log
	walPendingSeqOff
	walPendingLenOff
)

const walMagic = 0x57414C4B56000001

// Transaction phases; each Step advances exactly one, so every write/fsync
// boundary is a schedulable crash point for the sweep tests.
const (
	WALPhaseIdle = iota
	WALPhaseRec1
	WALPhaseRec2
	WALPhaseRec3
	WALPhaseSyncRecs // fixed protocol only
	WALPhaseCommit
	WALPhaseSyncCommit
	WALPhaseAck
)

const walSockID = 1

// WALCrashProc is the registered crash-procedure name.
const WALCrashProc = "walkv-crashproc"

// walCrashProcedure handles the unresurrectable socket after a microreboot.
// The store's entire state is its on-disk log — resurrection has already
// flushed whatever dirty pages the dead kernel held — so the procedure is
// one line: restart, and let ordinary WAL recovery rebuild the store. (The
// JOE-style minimal integration of Table 2.)
func walCrashProcedure(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
	return kernel.ActionRestart, nil
}

// Workload profile: a small storage engine doing mostly I/O. The access
// span covers exactly the two mapped pages (header + payload buffer).
const (
	walAccessPages   = 2
	walAccessesPerOp = 200
	walComputePerOp  = 20000
)

// WALKV is the server program.
type WALKV struct {
	// Buggy selects the commit-before-durable protocol.
	Buggy bool
	// txnAppendAt stamps (virtual time) the first record append of the
	// in-flight transaction, feeding the commit-to-durable latency
	// histogram when the commit fsync lands on the platter. Observability
	// only — the recoverable state lives entirely in simulated memory, so
	// losing this stamp across a crash merely drops that one sample.
	txnAppendAt time.Duration
	txnTimed    bool
}

// walLatencyBounds buckets the commit-to-durable latency histogram
// (virtual nanoseconds): appends are buffered, so the latency is dominated
// by the two fsyncs and grows with queued platter writes.
var walLatencyBounds = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// Boot recovers from the on-disk log, then opens it for appending and
// binds the client socket. There is no crash procedure: the store's state
// IS the log, and a restart is exactly recovery.
func (s *WALKV) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(walHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(walBufVA, 4096, rw); err != nil {
		return err
	}
	data, err := s.loadLog(env)
	if err != nil {
		return err
	}
	scan := ParseWAL(data)
	if err := env.WriteU64(walHdrVA+walMagicOff, walMagic); err != nil {
		return err
	}
	mode := uint64(0)
	if s.Buggy {
		mode = 1
	}
	if err := env.WriteU64(walHdrVA+walModeOff, mode); err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walPhaseOff, WALPhaseIdle); err != nil {
		return err
	}
	// Never reuse a transaction id any slot has seen: leftover records of a
	// lost transaction must not combine with a reissued one.
	if err := env.WriteU64(walHdrVA+walNextTxnOff, scan.MaxTxn+1); err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walAppliedOff, uint64(len(scan.Applied()))); err != nil {
		return err
	}
	fd, err := env.Open(WALPath, layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walFDOff, uint64(fd)); err != nil {
		return err
	}
	// Resume appending at the next page boundary: a torn tail stays in
	// place as an invalid slot the scan skips.
	end := (uint64(len(data)) + WALRecordSize - 1) / WALRecordSize * WALRecordSize
	if err := env.Seek(fd, end); err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walEndOff, end); err != nil {
		return err
	}
	if err := env.SockOpen(walSockID, layout.ProtoTCP, WALPort); err != nil {
		return err
	}
	return env.RegisterCrashProcedure(WALCrashProc)
}

// Rehydrate is a no-op: a resurrected store continues its in-flight
// transaction from the phase word.
func (s *WALKV) Rehydrate(env *kernel.Env) error { return nil }

// loadLog reads the whole log file (empty slice if absent).
func (s *WALKV) loadLog(env *kernel.Env) ([]byte, error) {
	fd, err := env.Open(WALPath, layout.FlagRead)
	if err != nil {
		return nil, nil // no log yet: fresh store
	}
	data := make([]byte, 0, 1<<16)
	for {
		if cap(data)-len(data) < WALRecordSize {
			grown := make([]byte, len(data), 2*cap(data))
			copy(grown, data)
			data = grown
		}
		n, rerr := env.ReadFile(fd, data[len(data):len(data)+WALRecordSize])
		if rerr != nil {
			return nil, rerr
		}
		if n == 0 {
			break
		}
		data = data[:len(data)+n]
	}
	if err := env.Close(fd); err != nil {
		return nil, err
	}
	return data, nil
}

// Step advances the transaction state machine by exactly one phase.
func (s *WALKV) Step(env *kernel.Env) error {
	env.SyscallAborted() // an aborted call is retried by re-running its phase

	phase, err := env.ReadU64(walHdrVA + walPhaseOff)
	if err != nil {
		return err
	}
	if phase == WALPhaseIdle {
		req, rerr := env.SockRecv(walSockID)
		if rerr != nil {
			if rerr == kernel.ErrWouldBlock {
				return kernel.ErrYield
			}
			return rerr
		}
		return s.beginTxn(env, string(req))
	}

	if err := env.Access(walHdrVA, walAccessPages, walAccessesPerOp); err != nil {
		return err
	}
	env.Compute(walComputePerOp)

	fd64, err := env.ReadU64(walHdrVA + walFDOff)
	if err != nil {
		return err
	}
	fd := uint32(fd64)
	txn, err := env.ReadU64(walHdrVA + walTxnOff)
	if err != nil {
		return err
	}
	mode, err := env.ReadU64(walHdrVA + walModeOff)
	if err != nil {
		return err
	}

	switch phase {
	case WALPhaseRec1, WALPhaseRec2, WALPhaseRec3:
		seq := phase - WALPhaseRec1 + 1
		payload, perr := s.pendingPayload(env)
		if perr != nil {
			return perr
		}
		rec := BuildWALRecord(WALKindRecord, txn, uint64(seq),
			[]byte(fmt.Sprintf("%s#%d", payload, seq)))
		if werr := s.appendRecord(env, fd, rec); werr != nil {
			return werr
		}
		if phase == WALPhaseRec1 {
			s.txnAppendAt = env.K.M.Clock.Now()
			s.txnTimed = true
		}
		next := phase + 1
		if phase == WALPhaseRec3 && mode == 1 {
			next = WALPhaseCommit // the bug: no fsync before COMMIT
		}
		return env.WriteU64(walHdrVA+walPhaseOff, next)
	case WALPhaseSyncRecs:
		if serr := env.Fsync(fd); serr != nil {
			return serr
		}
		return env.WriteU64(walHdrVA+walPhaseOff, WALPhaseCommit)
	case WALPhaseCommit:
		rec := BuildWALRecord(WALKindCommit, txn, 0, nil)
		if werr := s.appendRecord(env, fd, rec); werr != nil {
			return werr
		}
		return env.WriteU64(walHdrVA+walPhaseOff, WALPhaseSyncCommit)
	case WALPhaseSyncCommit:
		if serr := env.Fsync(fd); serr != nil {
			return serr
		}
		// The commit record is on the platter: the transaction is durable.
		if s.txnTimed {
			env.K.Metrics.Histogram("wal_commit_durable_latency_ns",
				"first record append to commit-record-durable, per transaction",
				walLatencyBounds, nil).Observe(int64(env.K.M.Clock.Since(s.txnAppendAt)))
			s.txnTimed = false
		}
		return env.WriteU64(walHdrVA+walPhaseOff, WALPhaseAck)
	case WALPhaseAck:
		return s.ack(env, txn)
	}
	return fmt.Errorf("walkv: corrupt phase %d", phase)
}

// beginTxn parses "P <seq> <payload>", assigns a transaction id and enters
// the append phases.
func (s *WALKV) beginTxn(env *kernel.Env, req string) error {
	fields := strings.SplitN(req, " ", 3)
	if len(fields) < 3 || fields[0] != "P" {
		return env.SockSend(walSockID, []byte("ERR parse"))
	}
	payload := fields[2]
	if len(payload) > WALPayloadCap {
		payload = payload[:WALPayloadCap]
	}
	next, err := env.ReadU64(walHdrVA + walNextTxnOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walTxnOff, next); err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walNextTxnOff, next+1); err != nil {
		return err
	}
	var seqNum uint64
	fmt.Sscanf(fields[1], "%d", &seqNum)
	if err := env.WriteU64(walHdrVA+walPendingSeqOff, seqNum); err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walPendingLenOff, uint64(len(payload))); err != nil {
		return err
	}
	if err := env.Write(walBufVA, []byte(payload)); err != nil {
		return err
	}
	return env.WriteU64(walHdrVA+walPhaseOff, WALPhaseRec1)
}

// pendingPayload reads the in-flight request payload from the buffer page.
func (s *WALKV) pendingPayload(env *kernel.Env) (string, error) {
	n, err := env.ReadU64(walHdrVA + walPendingLenOff)
	if err != nil {
		return "", err
	}
	if n > WALPayloadCap {
		return "", fmt.Errorf("walkv: corrupt pending length %d", n)
	}
	buf := make([]byte, n)
	if err := env.Read(walBufVA, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// appendRecord writes one page-sized record at the tracked append position.
func (s *WALKV) appendRecord(env *kernel.Env, fd uint32, rec []byte) error {
	if _, err := env.WriteFile(fd, rec); err != nil {
		return err
	}
	end, err := env.ReadU64(walHdrVA + walEndOff)
	if err != nil {
		return err
	}
	return env.WriteU64(walHdrVA+walEndOff, end+WALRecordSize)
}

// ack applies the committed transaction and replies to the client.
func (s *WALKV) ack(env *kernel.Env, txn uint64) error {
	applied, err := env.ReadU64(walHdrVA + walAppliedOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walAppliedOff, applied+1); err != nil {
		return err
	}
	ops, err := env.ReadU64(walHdrVA + walOpsOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walOpsOff, ops+1); err != nil {
		return err
	}
	seq, err := env.ReadU64(walHdrVA + walPendingSeqOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(walHdrVA+walPhaseOff, WALPhaseIdle); err != nil {
		return err
	}
	return env.SockSend(walSockID, []byte(fmt.Sprintf("OK P %d %d", seq, txn)))
}

// WALPhase reads the server's current transaction phase, for crash-point
// sweep tests that panic the kernel at a chosen boundary.
func WALPhase(env *kernel.Env) (uint64, error) {
	magic, err := env.ReadU64(walHdrVA + walMagicOff)
	if err != nil {
		return 0, err
	}
	if magic != walMagic {
		return 0, fmt.Errorf("walkv state corrupted: magic %#x", magic)
	}
	return env.ReadU64(walHdrVA + walPhaseOff)
}

// WALHeaderMagicOK verifies the resurrected header page.
func WALHeaderMagicOK(env *kernel.Env) error {
	magic, err := env.ReadU64(walHdrVA + walMagicOff)
	if err != nil {
		return err
	}
	if magic != walMagic {
		return fmt.Errorf("walkv state corrupted: magic %#x", magic)
	}
	return nil
}

// BuildWALRecord assembles one page-sized record with its trailing CRC.
func BuildWALRecord(kind, txn, seq uint64, payload []byte) []byte {
	rec := make([]byte, WALRecordSize)
	binary.LittleEndian.PutUint64(rec[walRecMagicOff:], walRecMagic)
	binary.LittleEndian.PutUint64(rec[walRecKindOff:], kind)
	binary.LittleEndian.PutUint64(rec[walRecTxnOff:], txn)
	binary.LittleEndian.PutUint64(rec[walRecSeqOff:], seq)
	binary.LittleEndian.PutUint64(rec[walRecLenOff:], uint64(len(payload)))
	copy(rec[walRecPayloadOff:], payload)
	binary.LittleEndian.PutUint32(rec[walCRCOff:], crc32.ChecksumIEEE(rec[:walCRCOff]))
	return rec
}

// WALScan is the result of parsing a log image slot by slot.
type WALScan struct {
	// Slots counts page-sized slots examined; InvalidSlots of them failed
	// validation (zero padding, torn or rolled-back writes).
	Slots        int
	InvalidSlots int
	// Commits maps transaction id -> seen valid COMMIT slot.
	Commits map[uint64]bool
	// Records maps transaction id -> set of valid record sequence numbers.
	Records map[uint64]map[uint64]bool
	// MaxTxn is the highest transaction id any valid slot names.
	MaxTxn uint64
}

// ParseWAL scans a log image page-aligned slot by slot. Invalid slots are
// skipped, not fatal: after a torn write the log legitimately contains
// garbage slots between valid ones.
func ParseWAL(data []byte) WALScan {
	scan := WALScan{
		Commits: make(map[uint64]bool),
		Records: make(map[uint64]map[uint64]bool),
	}
	for off := 0; off+WALRecordSize <= len(data); off += WALRecordSize {
		scan.Slots++
		slot := data[off : off+WALRecordSize]
		if binary.LittleEndian.Uint64(slot[walRecMagicOff:]) != walRecMagic {
			scan.InvalidSlots++
			continue
		}
		if crc32.ChecksumIEEE(slot[:walCRCOff]) != binary.LittleEndian.Uint32(slot[walCRCOff:]) {
			scan.InvalidSlots++
			continue
		}
		kind := binary.LittleEndian.Uint64(slot[walRecKindOff:])
		txn := binary.LittleEndian.Uint64(slot[walRecTxnOff:])
		seq := binary.LittleEndian.Uint64(slot[walRecSeqOff:])
		if txn > scan.MaxTxn {
			scan.MaxTxn = txn
		}
		switch kind {
		case WALKindCommit:
			scan.Commits[txn] = true
		case WALKindRecord:
			if seq < 1 || seq > WALRecsPerTxn {
				scan.InvalidSlots++
				continue
			}
			if scan.Records[txn] == nil {
				scan.Records[txn] = make(map[uint64]bool)
			}
			scan.Records[txn][seq] = true
		default:
			scan.InvalidSlots++
		}
	}
	if tail := len(data) % WALRecordSize; tail != 0 {
		scan.Slots++
		scan.InvalidSlots++ // a torn tail is by definition invalid
	}
	return scan
}

// Complete reports whether txn has all of its data records.
func (s WALScan) Complete(txn uint64) bool {
	recs := s.Records[txn]
	if len(recs) < WALRecsPerTxn {
		return false
	}
	for seq := uint64(1); seq <= WALRecsPerTxn; seq++ {
		if !recs[seq] {
			return false
		}
	}
	return true
}

// Applied returns the transactions recovery would apply: valid COMMIT plus
// all data records.
func (s WALScan) Applied() []uint64 {
	var out []uint64
	for txn := range s.Commits {
		if s.Complete(txn) {
			out = append(out, txn)
		}
	}
	return out
}
