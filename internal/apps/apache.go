package apps

import (
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// Apache models the Section 5.3 case study: a web application server whose
// PHP session module keeps session data in shared memory — a hash table
// keyed by session id holding serialized session values, reachable from a
// global variable. The crash procedure saves every element of the table to
// a file and restarts; startup repopulates the table. All changes live in
// the PHP module, so "all PHP applications can benefit ... without any
// changes" — here, all workloads driving the server benefit unchanged.

// ApacheCrashProc is the registered crash-procedure name.
const ApacheCrashProc = "php-crashproc"

// ApachePort is the server's listen port.
const ApachePort uint16 = 80

// apacheSessionsPath is where the crash procedure saves session data.
const apacheSessionsPath = "/var/www/sessions.dat"

// Shared-memory session store layout.
const (
	apShmVA  = 0x500000
	apShmCap = 512 << 10
	apHdrVA  = 0x600000 // ordinary header page (request counter, socket)
	// apWorkVA is the interpreter's working set (code, opcode caches,
	// request buffers) that the TLB traffic model touches.
	apWorkVA = 0x680000

	// Session store header (inside the shm segment).
	apMagicOff     = 0
	apCountOff     = 8
	apArenaNextOff = 16
	apListHeadOff  = 24
	apArenaStart   = 64

	// Session entry layout.
	apSessIDOff   = 0
	apSessNextOff = 8
	apSessLenOff  = 16
	apSessDataOff = 24
	// ApacheSessionDataCap is the serialized session value capacity.
	ApacheSessionDataCap = 128
	apSessSlot           = apSessDataOff + ApacheSessionDataCap
)

const apMagic = 0xA9AC4E0000000001

// apacheSockID is the listen socket identifier.
const apacheSockID = 1

// Apache workload profile (Table 3): more pages touched per request than
// MySQL (request parsing, PHP interpretation, session lookup) with less
// non-memory compute, so the TLB flushes hurt proportionally more.
const (
	apacheAccessPages   = 65
	apacheAccessesPerOp = 1160
	apacheComputePerOp  = 44000
)

// Apache is the server program.
type Apache struct{}

// Boot maps the session shm segment, reloads saved sessions, binds the
// listen socket and registers the crash procedure.
func (a *Apache) Boot(env *kernel.Env) error {
	if err := env.ShmGet(0xA9AC4E, apShmCap, apShmVA); err != nil {
		return err
	}
	if err := env.MapAnon(apHdrVA, 4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	if err := env.MapAnon(apWorkVA, apacheAccessPages*4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	if err := env.WriteU64(apShmVA+apMagicOff, apMagic); err != nil {
		return err
	}
	if err := env.WriteU64(apShmVA+apArenaNextOff, apShmVA+apArenaStart); err != nil {
		return err
	}
	if err := a.loadSessions(env); err != nil {
		return err
	}
	if err := env.SockOpen(apacheSockID, layout.ProtoTCP, ApachePort); err != nil {
		return err
	}
	return env.RegisterCrashProcedure(ApacheCrashProc)
}

func (a *Apache) Rehydrate(env *kernel.Env) error { return nil }

// Step serves one HTTP request, if any:
//
//	S <seq> <sess> <data>  store session data, replies "OK <seq>"
//	G <seq> <sess>         fetch session data, replies "OK <seq> <data>"
func (a *Apache) Step(env *kernel.Env) error {
	env.SyscallAborted() // the accept loop reissues its recv

	req, err := env.SockRecv(apacheSockID)
	if err != nil {
		if err == kernel.ErrWouldBlock {
			return kernel.ErrYield
		}
		return err
	}
	if err := env.Access(apWorkVA, apacheAccessPages, apacheAccessesPerOp); err != nil {
		return err
	}
	env.Compute(apacheComputePerOp)

	resp := a.handle(env, string(req))
	reqs, err := env.ReadU64(apHdrVA)
	if err != nil {
		return err
	}
	if err := env.WriteU64(apHdrVA, reqs+1); err != nil {
		return err
	}
	return env.SockSend(apacheSockID, []byte(resp))
}

func (a *Apache) handle(env *kernel.Env, req string) string {
	fields := strings.SplitN(req, " ", 4)
	if len(fields) < 3 {
		return "ERR parse"
	}
	seq := fields[1]
	sess, perr := strconv.ParseUint(fields[2], 10, 64)
	if perr != nil {
		return "ERR parse"
	}
	switch fields[0] {
	case "S":
		if len(fields) < 4 {
			return "ERR parse"
		}
		if err := apacheSetSession(env, sess, []byte(fields[3])); err != nil {
			return "ERR " + seq + " " + err.Error()
		}
		return "OK " + seq
	case "G":
		data, ok, err := apacheGetSession(env, sess)
		if err != nil {
			return "ERR " + seq + " " + err.Error()
		}
		if !ok {
			return "OK " + seq + " -"
		}
		return "OK " + seq + " " + string(data)
	}
	return "ERR op"
}

// apacheFindSession walks the session list for id.
func apacheFindSession(env *kernel.Env, id uint64) (entryVA uint64, err error) {
	cur, err := env.ReadU64(apShmVA + apListHeadOff)
	if err != nil {
		return 0, err
	}
	for hops := 0; cur != 0; hops++ {
		if hops > apShmCap/apSessSlot {
			return 0, fmt.Errorf("session list loop")
		}
		sid, err := env.ReadU64(cur + apSessIDOff)
		if err != nil {
			return 0, err
		}
		if sid == id {
			return cur, nil
		}
		if cur, err = env.ReadU64(cur + apSessNextOff); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// apacheSetSession creates or updates a session entry in the shm table.
func apacheSetSession(env *kernel.Env, id uint64, data []byte) error {
	if len(data) > ApacheSessionDataCap {
		data = data[:ApacheSessionDataCap]
	}
	entry, err := apacheFindSession(env, id)
	if err != nil {
		return err
	}
	if entry == 0 {
		// Crash-safe ordering: fill the unlinked entry, retire the
		// arena slot, then link it (the commit point). A crash in
		// between leaves the table consistent without the
		// unacknowledged session, and the client retries.
		arenaNext, err := env.ReadU64(apShmVA + apArenaNextOff)
		if err != nil {
			return err
		}
		if arenaNext+apSessSlot > apShmVA+apShmCap {
			return fmt.Errorf("session store full")
		}
		head, err := env.ReadU64(apShmVA + apListHeadOff)
		if err != nil {
			return err
		}
		entry = arenaNext
		if err := env.WriteU64(entry+apSessIDOff, id); err != nil {
			return err
		}
		if err := env.WriteU64(entry+apSessNextOff, head); err != nil {
			return err
		}
		if err := env.Write(entry+apSessDataOff, data); err != nil {
			return err
		}
		if err := env.WriteU64(entry+apSessLenOff, uint64(len(data))); err != nil {
			return err
		}
		if err := env.WriteU64(apShmVA+apArenaNextOff, arenaNext+apSessSlot); err != nil {
			return err
		}
		if err := env.WriteU64(apShmVA+apListHeadOff, entry); err != nil {
			return err
		}
		count, err := env.ReadU64(apShmVA + apCountOff)
		if err != nil {
			return err
		}
		return env.WriteU64(apShmVA+apCountOff, count+1)
	}
	// Existing session: write the value, then the length word that makes
	// it visible.
	if err := env.Write(entry+apSessDataOff, data); err != nil {
		return err
	}
	return env.WriteU64(entry+apSessLenOff, uint64(len(data)))
}

// apacheGetSession fetches a session's serialized value.
func apacheGetSession(env *kernel.Env, id uint64) ([]byte, bool, error) {
	entry, err := apacheFindSession(env, id)
	if err != nil || entry == 0 {
		return nil, false, err
	}
	n, err := env.ReadU64(entry + apSessLenOff)
	if err != nil {
		return nil, false, err
	}
	if n > ApacheSessionDataCap {
		return nil, false, fmt.Errorf("session corrupted: length %d", n)
	}
	data := make([]byte, n)
	if err := env.Read(entry+apSessDataOff, data); err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// ApacheSnapshot reads the whole session table, as the crash procedure
// does.
func ApacheSnapshot(env *kernel.Env) (map[uint64][]byte, error) {
	magic, err := env.ReadU64(apShmVA + apMagicOff)
	if err != nil {
		return nil, err
	}
	if magic != apMagic {
		return nil, fmt.Errorf("session store corrupted: magic %#x", magic)
	}
	out := make(map[uint64][]byte)
	cur, err := env.ReadU64(apShmVA + apListHeadOff)
	if err != nil {
		return nil, err
	}
	for hops := 0; cur != 0; hops++ {
		if hops > apShmCap/apSessSlot {
			return nil, fmt.Errorf("session store corrupted: list loop")
		}
		id, err := env.ReadU64(cur + apSessIDOff)
		if err != nil {
			return nil, err
		}
		n, err := env.ReadU64(cur + apSessLenOff)
		if err != nil {
			return nil, err
		}
		if n > ApacheSessionDataCap {
			return nil, fmt.Errorf("session store corrupted: length %d", n)
		}
		data := make([]byte, n)
		if err := env.Read(cur+apSessDataOff, data); err != nil {
			return nil, err
		}
		out[id] = data
		if cur, err = env.ReadU64(cur + apSessNextOff); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// apacheCrashProcedure is the Section 5.3 crash procedure: walk the session
// hash table in shared memory, save each element to a file, restart Apache.
// (~110 new lines in the real PHP module.)
func apacheCrashProcedure(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
	if missing&kernel.ResShm != 0 || missing&kernel.ResMemory != 0 {
		return kernel.ActionGiveUp, nil
	}
	sessions, err := ApacheSnapshot(env)
	if err != nil {
		return kernel.ActionGiveUp, nil
	}
	fd, err := env.Open(apacheSessionsPath, layout.FlagWrite|layout.FlagCreate|layout.FlagTrunc)
	if err != nil {
		return kernel.ActionGiveUp, err
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "%d\n", len(sessions))
	ids := make([]uint64, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sortU64(ids)
	for _, id := range ids {
		fmt.Fprintf(&buf, "%d %s\n", id, string(sessions[id]))
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

// loadSessions repopulates the shm table from a crash-procedure save.
func (a *Apache) loadSessions(env *kernel.Env) error {
	fd, err := env.Open(apacheSessionsPath, layout.FlagRead)
	if err != nil {
		return nil // nothing saved
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
	for _, line := range strings.Split(string(data), "\n")[1:] {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 2)
		if len(parts) < 2 {
			continue
		}
		id, perr := strconv.ParseUint(parts[0], 10, 64)
		if perr != nil {
			continue
		}
		if err := apacheSetSession(env, id, []byte(parts[1])); err != nil {
			return err
		}
	}
	fd, err = env.Open(apacheSessionsPath, layout.FlagWrite|layout.FlagTrunc)
	if err != nil {
		return err
	}
	return env.Close(fd)
}

// CorruptSessionByte flips one byte of a session's stored value in place,
// bypassing the server: fault-injection harnesses use it to plant exactly
// the damage an undetected wild write would cause, then check that
// verification catches it.
func CorruptSessionByte(env *kernel.Env, id uint64) error {
	entry, err := apacheFindSession(env, id)
	if err != nil {
		return err
	}
	if entry == 0 {
		return fmt.Errorf("apache: no session %d", id)
	}
	var b [1]byte
	if err := env.Read(entry+apSessDataOff, b[:]); err != nil {
		return err
	}
	b[0] ^= 0x55
	return env.Write(entry+apSessDataOff, b[:])
}
