package apps

import (
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// MySQL models the paper's Section 5.2 case study: a database server whose
// MEMORY pluggable storage engine keeps table data entirely in RAM, in a
// linked list of tables reachable from a global variable. Because the
// server talks to clients over sockets — which the prototype cannot
// resurrect — it registers a crash procedure that walks the tables with the
// engine's own row-scan functions, saves every row to disk as an opaque
// byte array, and restarts; the modified startup path reloads the saved
// rows into the in-memory tables.

// MySQLCrashProc is the registered crash-procedure name.
const MySQLCrashProc = "mysql-crashproc"

// MySQLPort is the server's listen port.
const MySQLPort uint16 = 3306

// mysqlRecoveryPath is where the crash procedure saves table contents; the
// paper passes the file name on the restart command line, we use a
// well-known path.
const mysqlRecoveryPath = "/var/lib/mysql/recovery.dat"

// Memory layout of the MEMORY storage engine.
const (
	myHdrVA = 0x200000
	// myTableVA is the first table block (the global table-list head
	// points here).
	myTableVA = 0x201000
	// myArenaVA is the row arena.
	myArenaVA  = 0x210000
	myArenaCap = 24 << 20
)

// Header word offsets.
const (
	myMagicOff = 8 * iota
	myTableHeadOff
	myArenaNextOff
	myNextRowIDOff
	myOpsOff
	mySock1Off // socket id slot (fixed, but kept as state for realism)
)

const myMagic = 0x4D59000000000001

// Row slot layout within the arena.
const (
	myRowIDOff   = 0
	myRowNextOff = 8
	myRowLenOff  = 16
	myRowDataOff = 24
	// MySQLRowDataCap is the fixed row payload capacity.
	MySQLRowDataCap = 256
	myRowSlot       = myRowDataOff + MySQLRowDataCap
)

// Table block layout.
const (
	myTblRowsHeadOff = 0
	myTblRowCountOff = 8
	myTblNextOff     = 16
	myTblNameOff     = 24
)

// mysqlSockID is the fd-like identifier of the listen socket.
const mysqlSockID = 1

// MySQL workload profile constants (Table 3 calibration): per request the
// server touches a moderate working set and does substantial non-memory
// work (parsing, locking, plan execution).
const (
	mysqlAccessPages   = 70
	mysqlAccessesPerOp = 1500
	mysqlComputePerOp  = 72000
)

// MySQL is the server program. It is stateless in Go; everything lives in
// the process image.
type MySQL struct{}

// Boot lays out the engine, loads any crash-procedure recovery file, binds
// the client socket and registers the crash procedure.
func (s *MySQL) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(myHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(myTableVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(myArenaVA, myArenaCap, rw); err != nil {
		return err
	}
	if err := env.WriteU64(myHdrVA+myMagicOff, myMagic); err != nil {
		return err
	}
	if err := env.WriteU64(myHdrVA+myTableHeadOff, myTableVA); err != nil {
		return err
	}
	if err := env.WriteU64(myHdrVA+myArenaNextOff, myArenaVA); err != nil {
		return err
	}
	if err := env.WriteU64(myHdrVA+myNextRowIDOff, 1); err != nil {
		return err
	}
	// One MEMORY table, "t0".
	if err := env.Write(myTableVA+myTblNameOff, []byte("t0\x00")); err != nil {
		return err
	}
	if err := s.loadRecovery(env); err != nil {
		return err
	}
	if err := env.SockOpen(mysqlSockID, layout.ProtoTCP, MySQLPort); err != nil {
		return err
	}
	return env.RegisterCrashProcedure(MySQLCrashProc)
}

// Step serves one client request, if any.
func (s *MySQL) Step(env *kernel.Env) error {
	env.SyscallAborted() // the server loop simply reissues its recv

	req, err := env.SockRecv(mysqlSockID)
	if err != nil {
		if err == kernel.ErrWouldBlock {
			return kernel.ErrYield
		}
		return err
	}
	if err := env.Access(myArenaVA, mysqlAccessPages, mysqlAccessesPerOp); err != nil {
		return err
	}
	env.Compute(mysqlComputePerOp)

	resp, err := s.execute(env, string(req))
	if err != nil {
		return err
	}
	ops, err := env.ReadU64(myHdrVA + myOpsOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(myHdrVA+myOpsOff, ops+1); err != nil {
		return err
	}
	return env.SockSend(mysqlSockID, []byte(resp))
}

// execute parses and applies one statement:
//
//	I <seq> <payload>          insert, replies "OK I <seq> <rowid>"
//	U <seq> <rowid> <payload>  update, replies "OK U <seq>"
//	D <seq> <rowid>            delete, replies "OK D <seq>"
func (s *MySQL) execute(env *kernel.Env, req string) (string, error) {
	fields := strings.SplitN(req, " ", 4)
	if len(fields) < 2 {
		return "ERR parse", nil
	}
	op, seq := fields[0], fields[1]
	switch op {
	case "I":
		if len(fields) < 3 {
			return "ERR parse", nil
		}
		id, err := s.insert(env, []byte(fields[2]))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("OK I %s %d", seq, id), nil
	case "U":
		if len(fields) < 4 {
			return "ERR parse", nil
		}
		rowid, perr := strconv.ParseUint(fields[2], 10, 64)
		if perr != nil {
			return "ERR parse", nil
		}
		found, err := s.update(env, rowid, []byte(fields[3]))
		if err != nil {
			return "", err
		}
		if !found {
			return fmt.Sprintf("ERR U %s norow", seq), nil
		}
		return fmt.Sprintf("OK U %s", seq), nil
	case "D":
		if len(fields) < 3 {
			return "ERR parse", nil
		}
		rowid, perr := strconv.ParseUint(fields[2], 10, 64)
		if perr != nil {
			return "ERR parse", nil
		}
		found, err := s.delete(env, rowid)
		if err != nil {
			return "", err
		}
		if !found {
			return fmt.Sprintf("ERR D %s norow", seq), nil
		}
		return fmt.Sprintf("OK D %s", seq), nil
	}
	return "ERR op", nil
}

// insert appends a row to t0, returning its rowid.
func (s *MySQL) insert(env *kernel.Env, data []byte) (uint64, error) {
	if len(data) > MySQLRowDataCap {
		data = data[:MySQLRowDataCap]
	}
	arenaNext, err := env.ReadU64(myHdrVA + myArenaNextOff)
	if err != nil {
		return 0, err
	}
	if arenaNext+myRowSlot > myArenaVA+myArenaCap {
		return 0, fmt.Errorf("mysql: table full")
	}
	rowid, err := env.ReadU64(myHdrVA + myNextRowIDOff)
	if err != nil {
		return 0, err
	}
	head, err := env.ReadU64(myTableVA + myTblRowsHeadOff)
	if err != nil {
		return 0, err
	}
	// Crash-safe ordering: fill the unlinked row, retire the arena slot
	// and rowid, and only then link the row into the table (the commit
	// point). A kernel crash at any intermediate point leaves the table
	// consistent — at worst an unacknowledged row is absent and the
	// client retries, which is ordinary at-least-once semantics.
	if err := env.WriteU64(arenaNext+myRowIDOff, rowid); err != nil {
		return 0, err
	}
	if err := env.WriteU64(arenaNext+myRowNextOff, head); err != nil {
		return 0, err
	}
	if err := env.WriteU64(arenaNext+myRowLenOff, uint64(len(data))); err != nil {
		return 0, err
	}
	if err := env.Write(arenaNext+myRowDataOff, data); err != nil {
		return 0, err
	}
	if err := env.WriteU64(myHdrVA+myArenaNextOff, arenaNext+myRowSlot); err != nil {
		return 0, err
	}
	if err := env.WriteU64(myHdrVA+myNextRowIDOff, rowid+1); err != nil {
		return 0, err
	}
	if err := env.WriteU64(myTableVA+myTblRowsHeadOff, arenaNext); err != nil {
		return 0, err
	}
	count, err := env.ReadU64(myTableVA + myTblRowCountOff)
	if err != nil {
		return 0, err
	}
	return rowid, env.WriteU64(myTableVA+myTblRowCountOff, count+1)
}

// findRow walks t0's row list for rowid, returning the row VA and its
// predecessor's next-pointer VA.
func (s *MySQL) findRow(env *kernel.Env, rowid uint64) (rowVA, prevNextVA uint64, err error) {
	prevNextVA = myTableVA + myTblRowsHeadOff
	cur, err := env.ReadU64(prevNextVA)
	if err != nil {
		return 0, 0, err
	}
	for hops := 0; cur != 0; hops++ {
		if hops > myArenaCap/myRowSlot {
			return 0, 0, fmt.Errorf("mysql: row list loop")
		}
		id, err := env.ReadU64(cur + myRowIDOff)
		if err != nil {
			return 0, 0, err
		}
		if id == rowid {
			return cur, prevNextVA, nil
		}
		prevNextVA = cur + myRowNextOff
		if cur, err = env.ReadU64(prevNextVA); err != nil {
			return 0, 0, err
		}
	}
	return 0, 0, nil
}

// update overwrites a row's payload in place.
func (s *MySQL) update(env *kernel.Env, rowid uint64, data []byte) (bool, error) {
	if len(data) > MySQLRowDataCap {
		data = data[:MySQLRowDataCap]
	}
	row, _, err := s.findRow(env, rowid)
	if err != nil || row == 0 {
		return false, err
	}
	if err := env.WriteU64(row+myRowLenOff, uint64(len(data))); err != nil {
		return false, err
	}
	return true, env.Write(row+myRowDataOff, data)
}

// delete unlinks a row.
func (s *MySQL) delete(env *kernel.Env, rowid uint64) (bool, error) {
	row, prevNextVA, err := s.findRow(env, rowid)
	if err != nil || row == 0 {
		return false, err
	}
	next, err := env.ReadU64(row + myRowNextOff)
	if err != nil {
		return false, err
	}
	if err := env.WriteU64(prevNextVA, next); err != nil {
		return false, err
	}
	count, err := env.ReadU64(myTableVA + myTblRowCountOff)
	if err != nil {
		return false, err
	}
	if count > 0 {
		count--
	}
	return true, env.WriteU64(myTableVA+myTblRowCountOff, count)
}

// MySQLSnapshot reads every live row out of the process image, exactly as
// the crash procedure's row scan does.
func MySQLSnapshot(env *kernel.Env) (map[uint64][]byte, error) {
	magic, err := env.ReadU64(myHdrVA + myMagicOff)
	if err != nil {
		return nil, err
	}
	if magic != myMagic {
		return nil, fmt.Errorf("mysql state corrupted: magic %#x", magic)
	}
	rows := make(map[uint64][]byte)
	cur, err := env.ReadU64(myTableVA + myTblRowsHeadOff)
	if err != nil {
		return nil, err
	}
	for hops := 0; cur != 0; hops++ {
		if hops > myArenaCap/myRowSlot {
			return nil, fmt.Errorf("mysql state corrupted: row list loop")
		}
		id, err := env.ReadU64(cur + myRowIDOff)
		if err != nil {
			return nil, err
		}
		n, err := env.ReadU64(cur + myRowLenOff)
		if err != nil {
			return nil, err
		}
		if n > MySQLRowDataCap {
			return nil, fmt.Errorf("mysql state corrupted: row %d length %d", id, n)
		}
		data := make([]byte, n)
		if err := env.Read(cur+myRowDataOff, data); err != nil {
			return nil, err
		}
		if _, dup := rows[id]; dup {
			return nil, fmt.Errorf("mysql state corrupted: duplicate rowid %d", id)
		}
		rows[id] = data
		if cur, err = env.ReadU64(cur + myRowNextOff); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// mysqlCrashProcedure is the Section 5.2 crash procedure: iterate the table
// list, retrieve each row with the engine's scan functions (treating row
// contents as opaque bytes), save everything to disk and restart the
// server. ~70 new lines in the real MySQL; the same shape here.
func mysqlCrashProcedure(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
	rows, err := MySQLSnapshot(env)
	if err != nil {
		// The in-memory tables are damaged; restarting empty would
		// silently lose data, so give up and let the operator restore
		// from a dump.
		return kernel.ActionGiveUp, nil
	}
	fd, err := env.Open(mysqlRecoveryPath, layout.FlagWrite|layout.FlagCreate|layout.FlagTrunc)
	if err != nil {
		return kernel.ActionGiveUp, err
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "%d\n", len(rows))
	// Deterministic order for the on-disk image.
	ids := make([]uint64, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sortU64(ids)
	for _, id := range ids {
		fmt.Fprintf(&buf, "%d %d %s\n", id, len(rows[id]), string(rows[id]))
	}
	if _, err := env.WriteFile(fd, []byte(buf.String())); err != nil {
		return kernel.ActionGiveUp, err
	}
	if err := env.Fsync(fd); err != nil {
		return kernel.ActionGiveUp, err
	}
	if err := env.Close(fd); err != nil {
		return kernel.ActionGiveUp, err
	}
	return kernel.ActionRestart, nil
}

// loadRecovery is the modified startup path: read rows saved by the crash
// procedure and repopulate the in-memory table, then consume the file.
func (s *MySQL) loadRecovery(env *kernel.Env) error {
	fd, err := env.Open(mysqlRecoveryPath, layout.FlagRead)
	if err != nil {
		return nil // no recovery image: fresh start
	}
	var data []byte
	chunk := make([]byte, 4096)
	for {
		n, rerr := env.ReadFile(fd, chunk)
		if rerr != nil {
			return rerr
		}
		if n == 0 {
			break
		}
		data = append(data, chunk[:n]...)
	}
	if err := env.Close(fd); err != nil {
		return err
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 {
		return nil
	}
	maxID := uint64(0)
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) < 3 {
			continue
		}
		id, perr := strconv.ParseUint(parts[0], 10, 64)
		if perr != nil {
			continue
		}
		if _, err := s.insertWithID(env, id, []byte(parts[2])); err != nil {
			return err
		}
		if id > maxID {
			maxID = id
		}
	}
	if maxID > 0 {
		if err := env.WriteU64(myHdrVA+myNextRowIDOff, maxID+1); err != nil {
			return err
		}
	}
	// Consume the recovery image so a later clean restart starts fresh.
	fd, err = env.Open(mysqlRecoveryPath, layout.FlagWrite|layout.FlagTrunc)
	if err != nil {
		return err
	}
	return env.Close(fd)
}

// insertWithID reinserts a recovered row preserving its original rowid.
func (s *MySQL) insertWithID(env *kernel.Env, rowid uint64, data []byte) (uint64, error) {
	if err := env.WriteU64(myHdrVA+myNextRowIDOff, rowid); err != nil {
		return 0, err
	}
	return s.insert(env, data)
}

// sortU64 sorts ids ascending (insertion sort: recovery images are small).
func sortU64(ids []uint64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// CorruptRowByte flips one byte of the newest committed row's payload in
// place, for fault-injection harnesses checking verification sensitivity.
func CorruptRowByte(env *kernel.Env) error {
	head, err := env.ReadU64(myTableVA + myTblRowsHeadOff)
	if err != nil {
		return err
	}
	if head == 0 {
		return fmt.Errorf("mysql: no rows to corrupt")
	}
	var b [1]byte
	if err := env.Read(head+myRowDataOff, b[:]); err != nil {
		return err
	}
	b[0] ^= 0x55
	return env.Write(head+myRowDataOff, b[:])
}
