package workload

import "testing"

// TestRepliesParseInPlace holds the remote peers' reply parsing to its
// budget: a stale duplicate allocates nothing, and an acknowledgement
// allocates no more than the row, session or transaction it records. The
// drivers have no budget left, so no acknowledgement issues a request, and
// the sequence numbers have four digits, past strconv's small-number table.
func TestRepliesParseInPlace(t *testing.T) {
	mysql := NewMySQLDriver(1)
	apache := NewApacheDriver(1)
	wal := NewWALDriver(1, false)
	volano := NewVolanoDriver(1)
	for _, tc := range []struct {
		name  string
		reply func()
		max   float64
	}{
		{"mysql/stale", func() {
			mysql.seq, mysql.pending = 1234, "I 1234 r1234"
			mysql.onResponse(nil, []byte("OK I 1233 7"))
		}, 0},
		{"mysql/insert", func() {
			mysql.seq, mysql.pending = 1234, "I 1234 r1234"
			mysql.onResponse(nil, []byte("OK I 1234 7"))
		}, 1},
		{"mysql/update", func() {
			mysql.seq, mysql.pending = 1235, "U 1235 7 v1235"
			mysql.onResponse(nil, []byte("OK U 1235"))
		}, 1},
		{"mysql/delete", func() {
			mysql.seq, mysql.pending = 1236, "D 1236 8"
			mysql.onResponse(nil, []byte("OK D 1236"))
		}, 0},
		{"apache/stale", func() {
			apache.seq, apache.pending = 1234, "S 1234 9 cart1234"
			apache.onResponse(nil, []byte("OK 1233"))
		}, 0},
		{"apache/store", func() {
			apache.seq, apache.pending = 1234, "S 1234 9 cart1234"
			apache.onResponse(nil, []byte("OK 1234"))
		}, 1},
		{"apache/get", func() {
			apache.seq, apache.pending = 1235, "G 1235 9"
			apache.onResponse(nil, []byte("OK 1235 cart1234"))
		}, 0},
		{"wal/stale", func() {
			wal.pendingSeq, wal.pending = 1234, "P 1234 p1234-5"
			wal.onResponse(nil, []byte("OK P 1233 41"))
		}, 0},
		{"wal/commit", func() {
			wal.pendingSeq, wal.pending = 1234, "P 1234 p1234-5"
			wal.onResponse(nil, []byte("OK P 1234 41"))
		}, 1},
		{"volano/stale", func() {
			volano.seq, volano.pending = 1234, "M 1234 3 hello1234"
			volano.onResponse(nil, []byte("OK 1233"))
		}, 0},
		{"volano/ack", func() {
			volano.seq, volano.pending = 1234, "M 1234 3 hello1234"
			volano.onResponse(nil, []byte("OK 1234"))
		}, 0},
	} {
		if got := testing.AllocsPerRun(100, tc.reply); got > tc.max {
			t.Errorf("%s: %.0f allocations a reply, want at most %.0f", tc.name, got, tc.max)
		}
	}
	if string(mysql.rows[7]) != "v1235" || string(apache.sessions[9]) != "cart1234" || !wal.ackedTxns[41] {
		t.Fatalf("replies recorded rows %q, sessions %q, txns %v", mysql.rows, apache.sessions, wal.ackedTxns)
	}
	if apache.getMismatches != 0 || mysql.acked == 0 || volano.acked == 0 {
		t.Fatalf("get mismatches %d, mysql acked %d, volano acked %d", apache.getMismatches, mysql.acked, volano.acked)
	}
}
