// Package history is the reconfiguration history lake: an append-only,
// bounded store of every committed reconfiguration a region performs.
// Where the trace flight recorder answers "which phase of reconfig #42
// was slow" until the ring forgets, the lake answers the operator's
// time-travel questions — what did the region look like before shift
// #1234, what changed, did health degrade — by capturing each reconfig
// as one self-contained Record: trigger, span tree, allocation diff
// (pair and duct granularity), and pre/post health + hose aggregates.
//
// The lake is one ring under one mutex. Append assigns Seq under that
// lock, so ring order is Seq order. Appends are O(1) and allocation-free
// at steady state: a full ring overwrites its oldest record in place,
// and the ID index reuses its map storage. A read costs what it returns:
// Get is one index lookup, Summaries(n) summarizes the last n slots in
// place, and Records(from, to) copies only that Seq range. With a Path
// configured, every record is also written as one JSON line, and a new
// lake replays the tail of that file so history survives a daemon
// restart.
package history

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"iris/internal/core"
	"iris/internal/jsonw"
	"iris/internal/telemetry"
	"iris/internal/trace"
)

// Trigger says which control-plane path committed a reconfiguration.
type Trigger string

const (
	// TriggerConverge is the daemon's steady-state converge loop reacting
	// to a traffic shift.
	TriggerConverge Trigger = "converge"
	// TriggerRepair is a health-driven repair pass.
	TriggerRepair Trigger = "repair"
	// TriggerChaos is a chaos-cycle (inject → heal → replan → settle).
	TriggerChaos Trigger = "chaos-cycle"
	// TriggerEnvelopeEscape is a robust-mode re-plan: the live demand
	// left the committed envelope and a new envelope was solved.
	TriggerEnvelopeEscape Trigger = "envelope-escape"
)

// Health is the control-plane health snapshot bracketing a record.
type Health struct {
	Healthy    bool `json:"healthy"`
	Converged  bool `json:"converged"`
	NeedRepair bool `json:"need_repair"`
}

func (h Health) appendJSON(b []byte) []byte {
	b = jsonw.Bool(append(b, `{"healthy":`...), h.Healthy)
	b = jsonw.Bool(append(b, `,"converged":`...), h.Converged)
	b = jsonw.Bool(append(b, `,"need_repair":`...), h.NeedRepair)
	return append(b, '}')
}

// HoseAggregate summarizes the demand matrix a reconfiguration served:
// total wavelengths, the largest single pair, and the pair count.
type HoseAggregate struct {
	Total   float64 `json:"total"`
	MaxPair float64 `json:"max_pair"`
	Pairs   int     `json:"pairs"`
}

func (h HoseAggregate) appendJSON(b []byte) []byte {
	b = jsonw.Float(append(b, `{"total":`...), h.Total)
	b = jsonw.Float(append(b, `,"max_pair":`...), h.MaxPair)
	b = jsonw.Int(append(b, `,"pairs":`...), h.Pairs)
	return append(b, '}')
}

// Record is one committed reconfiguration. Seq is assigned by the lake
// at append time and totally orders records; ReconfigID is the trace ID
// the control plane threaded through the operation, so the record joins
// against /debug/events and /status.LastReconfigID.
type Record struct {
	Seq        uint64        `json:"seq"`
	ReconfigID uint64        `json:"reconfig_id"`
	Trigger    Trigger       `json:"trigger"`
	At         time.Time     `json:"at"`
	Duration   time.Duration `json:"duration_ns"`
	Err        string        `json:"error,omitempty"`
	PreHealth  Health        `json:"pre_health"`
	PostHealth Health        `json:"post_health"`
	PreHose    HoseAggregate `json:"pre_hose"`
	PostHose   HoseAggregate `json:"post_hose"`
	// Pairs is the allocation diff: absolute before/after circuits per
	// changed DC pair, composable in Seq order (core.ApplyDeltas).
	Pairs []core.PairDelta `json:"pairs,omitempty"`
	// Ducts projects the pair diff onto physical duct occupancy.
	Ducts []core.DuctDelta `json:"ducts,omitempty"`
	// Spans is the record's slice of the flight recorder: every event of
	// the reconfig's trace, captured before the ring forgets them.
	Spans []trace.Event `json:"spans,omitempty"`
}

// Summary is a Record with the heavy payloads reduced to counts — what
// a history listing shows per row.
type Summary struct {
	Seq          uint64        `json:"seq"`
	ReconfigID   uint64        `json:"reconfig_id"`
	Trigger      Trigger       `json:"trigger"`
	At           time.Time     `json:"at"`
	Duration     time.Duration `json:"duration_ns"`
	Err          string        `json:"error,omitempty"`
	PreHealth    Health        `json:"pre_health"`
	PostHealth   Health        `json:"post_health"`
	PreHose      HoseAggregate `json:"pre_hose"`
	PostHose     HoseAggregate `json:"post_hose"`
	PairsChanged int           `json:"pairs_changed"`
	DuctsTouched int           `json:"ducts_touched"`
	Spans        int           `json:"spans"`
}

func (s Summary) AppendJSON(b []byte) []byte {
	b = jsonw.Uint(append(b, `{"seq":`...), s.Seq)
	b = jsonw.Uint(append(b, `,"reconfig_id":`...), s.ReconfigID)
	b = jsonw.String(append(b, `,"trigger":`...), string(s.Trigger))
	b = jsonw.Time(append(b, `,"at":`...), s.At)
	b = strconv.AppendInt(append(b, `,"duration_ns":`...), int64(s.Duration), 10)
	if s.Err != "" {
		b = jsonw.String(append(b, `,"error":`...), s.Err)
	}
	b = s.PreHealth.appendJSON(append(b, `,"pre_health":`...))
	b = s.PostHealth.appendJSON(append(b, `,"post_health":`...))
	b = s.PreHose.appendJSON(append(b, `,"pre_hose":`...))
	b = s.PostHose.appendJSON(append(b, `,"post_hose":`...))
	b = jsonw.Int(append(b, `,"pairs_changed":`...), s.PairsChanged)
	b = jsonw.Int(append(b, `,"ducts_touched":`...), s.DuctsTouched)
	b = jsonw.Int(append(b, `,"spans":`...), s.Spans)
	return append(b, '}')
}

// summarize reduces the record to its listing row.
func (r *Record) summarize() Summary {
	return Summary{
		Seq:        r.Seq,
		ReconfigID: r.ReconfigID,
		Trigger:    r.Trigger,
		At:         r.At,
		Duration:   r.Duration,
		Err:        r.Err,
		PreHealth:  r.PreHealth, PostHealth: r.PostHealth,
		PreHose: r.PreHose, PostHose: r.PostHose,
		PairsChanged: len(r.Pairs),
		DuctsTouched: len(r.Ducts),
		Spans:        len(r.Spans),
	}
}

// Config configures a Lake.
type Config struct {
	// Capacity is the number of records retained; non-positive selects
	// 512.
	Capacity int
	// Path, when non-empty, enables JSONL persistence: appends are
	// mirrored to the file and New replays its tail on open.
	Path string
	// Registry receives the lake's iris_history_* metrics; nil disables
	// them.
	Registry *telemetry.Registry
}

// Lake is the history store. All methods are safe for concurrent use.
type Lake struct {
	// mu guards the ring: buf[(next-n+len(buf)) % len(buf)] is the
	// oldest of the n records held, buf[next-1] the newest, and Seq
	// ascends from one to the next.
	mu   sync.Mutex
	buf  []Record
	idx  map[uint64]int // reconfig ID -> slot
	next int
	n    int
	seq  uint64 // the last Seq assigned or replayed

	fileMu sync.Mutex
	file   *os.File

	appends    *telemetry.Counter
	evictions  *telemetry.Counter
	persistErr *telemetry.Counter
	replayed   *telemetry.Counter
	records    *telemetry.Gauge
}

// New opens a lake. With a Path configured it replays the file's tail
// (up to Capacity records, resuming the Seq counter past the highest
// replayed value) and keeps the file open for appends; replay problems
// are not fatal — a truncated line ends the replay and appending
// continues on the same file.
func New(cfg Config) (*Lake, error) {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 512
	}
	l := &Lake{buf: make([]Record, capacity), idx: make(map[uint64]int, capacity)}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l.appends = reg.Counter("iris_history_appends_total", "Reconfiguration records appended to the history lake.")
	l.evictions = reg.Counter("iris_history_evictions_total", "History records evicted by the bounded ring.")
	l.persistErr = reg.Counter("iris_history_persist_errors_total", "Failed JSONL persistence writes.")
	l.replayed = reg.Counter("iris_history_replayed_total", "Records replayed from the JSONL file at open.")
	l.records = reg.Gauge("iris_history_records", "Records currently retained in the history lake.")

	if cfg.Path != "" {
		l.replay(cfg.Path)
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.file = f
	}
	return l, nil
}

// replay loads the tail of a JSONL file into the ring. Records keep
// their persisted Seq; the lake's counter resumes past the maximum so
// new appends sort after everything replayed. Appends journal after
// they leave the ring's lock, so concurrent ones can reach the file out
// of Seq order: the tail is sorted by Seq before it is inserted.
func (l *Lake) replay(path string) {
	f, err := os.Open(path)
	if err != nil {
		return // first run: nothing to replay
	}
	defer f.Close()
	var tail []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // truncated or corrupt tail: keep what parsed
		}
		tail = append(tail, rec)
		if len(tail) > len(l.buf) {
			tail = tail[1:]
		}
	}
	slices.SortStableFunc(tail, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range tail {
		l.seq = max(l.seq, rec.Seq)
		l.insertLocked(rec)
		l.replayed.Inc()
	}
}

// Append stores one record, assigning its Seq, and returns it. The hot
// path is a struct copy into a pre-allocated ring slot under the lake's
// mutex — O(1), allocation-free at steady state. With persistence
// enabled the record is also written as one JSON line (failures count in
// iris_history_persist_errors_total and do not affect the in-memory
// append).
func (l *Lake) Append(rec Record) uint64 {
	l.mu.Lock()
	l.seq++
	rec.Seq = l.seq
	l.insertLocked(rec)
	l.mu.Unlock()
	l.appends.Inc()
	if l.file != nil {
		l.persist(rec)
	}
	return rec.Seq
}

// insertLocked places a record in the ring's next slot, evicting the
// oldest record in the lake from the ID index when the ring is full. Two
// records may share a ReconfigID — a replayed journal holds the previous
// process's IDs, and the tracer of this one starts at 1 again — and the
// index then points at the newer: evicting the older must leave it be.
// Callers hold l.mu.
func (l *Lake) insertLocked(rec Record) {
	if l.n == len(l.buf) {
		if old := l.buf[l.next].ReconfigID; l.idx[old] == l.next {
			delete(l.idx, old)
		}
		l.evictions.Inc()
	} else {
		l.n++
	}
	l.buf[l.next] = rec
	l.idx[rec.ReconfigID] = l.next
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
	}
	l.records.Set(float64(l.n))
}

// slotLocked returns the ring slot of the i-th oldest record held.
// Callers hold l.mu.
func (l *Lake) slotLocked(i int) int {
	return (l.next - l.n + i + len(l.buf)) % len(l.buf)
}

func (l *Lake) persist(rec Record) {
	b, err := json.Marshal(rec)
	if err != nil {
		l.persistErr.Inc()
		return
	}
	b = append(b, '\n')
	l.fileMu.Lock()
	_, err = l.file.Write(b)
	l.fileMu.Unlock()
	if err != nil {
		l.persistErr.Inc()
	}
}

// Close flushes and closes the persistence file, if any.
func (l *Lake) Close() error {
	if l == nil || l.file == nil {
		return nil
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	err := l.file.Close()
	l.file = nil
	return err
}

// Get returns the record for a reconfig ID.
func (l *Lake) Get(id uint64) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.idx[id]
	if !ok {
		return Record{}, false
	}
	return l.buf[slot], true
}

// Records returns the retained records whose Seq lies in (from, to], in
// Seq order. It finds the range by binary search over the ring and
// copies only that.
func (l *Lake) Records(from, to uint64) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	first := sort.Search(l.n, func(i int) bool { return l.buf[l.slotLocked(i)].Seq > from })
	end := sort.Search(l.n, func(i int) bool { return l.buf[l.slotLocked(i)].Seq > to })
	if first >= end {
		return nil
	}
	out := make([]Record, end-first)
	for i := range out {
		out[i] = l.buf[l.slotLocked(first+i)]
	}
	return out
}

// Summaries returns the most recent n records (all of them when n <= 0)
// as listing rows, in ascending Seq order, summarizing them in place.
func (l *Lake) Summaries(n int) []Summary {
	if l == nil {
		return []Summary{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Summary, n)
	for i := range out {
		out[i] = l.buf[l.slotLocked(l.n-n+i)].summarize()
	}
	return out
}

// Len returns the number of retained records.
func (l *Lake) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Evicted returns how many records the bounded ring has dropped.
func (l *Lake) Evicted() int {
	if l == nil {
		return 0
	}
	return int(l.evictions.Value())
}
