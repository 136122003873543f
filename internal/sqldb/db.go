package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Common executor errors.
var (
	ErrNoSuchTable  = errors.New("sqldb: no such table")
	ErrNoSuchColumn = errors.New("sqldb: no such column")
	ErrDuplicateKey = errors.New("sqldb: duplicate key")
	ErrNotNull      = errors.New("sqldb: NOT NULL constraint violated")
	ErrTxDone       = errors.New("sqldb: transaction already finished")
)

// CostModel converts executor work counters into a virtual service time so
// the simulation can charge database CPU. All costs are per statement.
type CostModel struct {
	PerStatement   time.Duration // fixed parse/plan/dispatch overhead
	PerRowScanned  time.Duration // per row examined
	PerRowWritten  time.Duration // per row inserted/updated/deleted
	PerRowReturned time.Duration // per row in the result set
}

// DefaultCostModel approximates a well-indexed year-2002 database server:
// sub-millisecond point queries, milliseconds for scans of hundreds of rows.
var DefaultCostModel = CostModel{
	PerStatement:   300 * time.Microsecond,
	PerRowScanned:  4 * time.Microsecond,
	PerRowWritten:  40 * time.Microsecond,
	PerRowReturned: 2 * time.Microsecond,
}

func (c CostModel) cost(scanned, written, returned int) time.Duration {
	return c.PerStatement +
		time.Duration(scanned)*c.PerRowScanned +
		time.Duration(written)*c.PerRowWritten +
		time.Duration(returned)*c.PerRowReturned
}

// Result is the outcome of one statement.
type Result struct {
	Cols     []string  // result column names (SELECT only)
	Rows     [][]Value // result rows (SELECT only)
	Affected int       // rows inserted/updated/deleted
	Scanned  int       // rows examined (virtual: the cost model's view)
	Cost     time.Duration

	// IndexUsed reports whether a hash index narrowed the scan (SELECT,
	// UPDATE and DELETE; always false for other statements).
	IndexUsed bool

	// ScannedActual counts the rows the chosen physical plan really
	// visited. Scanned stays pinned to the original engine's figure so the
	// simulation charges identical virtual CPU regardless of plan choice;
	// ScannedActual is where ordered-index scans and early termination
	// show up.
	ScannedActual int

	// IndexProbes counts index lookups performed while executing.
	IndexProbes int

	// PlanCached reports whether the statement reused a cached query plan
	// (SELECT, UPDATE and DELETE only).
	PlanCached bool
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Col returns the index of the named result column, or -1.
func (r *Result) Col(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the value at (row, named column); NULL if absent.
func (r *Result) Value(row int, col string) Value {
	i := r.Col(col)
	if i < 0 || row < 0 || row >= len(r.Rows) {
		return Null()
	}
	return r.Rows[row][i]
}

// row is one stored tuple; dead rows are tombstones left by DELETE.
type row struct {
	vals []Value
	dead bool
}

// index is a hash index over a single column, doubled by an ordered key
// list so range scans, prefix-LIKE scans and index-ordered walks can
// traverse the same structure. Two invariants hold at all times:
//
//   - keys lists exactly the keys present in m, sorted by compareKey;
//   - every bucket holds its live row positions in ascending order.
//
// The second invariant makes every access path — full scan, hash probe,
// range walk — enumerate candidates in the same row-position order, which is
// what keeps result row order identical across plan choices.
type index struct {
	name   string
	col    int
	unique bool
	m      map[key][]int // value -> live row positions, ascending
	keys   []key         // keys of m, sorted by compareKey

	// nonASCII counts string keys containing non-ASCII bytes. Prefix-LIKE
	// narrowing enumerates ASCII case variants, which cannot account for
	// Unicode case folding, so it only engages while this is zero.
	nonASCII int
}

func (ix *index) add(k key, pos int) {
	b, ok := ix.m[k]
	if !ok {
		ix.insertKey(k)
		ix.m[k] = append(b, pos)
		return
	}
	// New rows get the highest position, so appends dominate.
	if n := len(b); b[n-1] < pos {
		ix.m[k] = append(b, pos)
		return
	}
	i := sort.SearchInts(b, pos)
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = pos
	ix.m[k] = b
}

func (ix *index) remove(k key, pos int) {
	b := ix.m[k]
	i := sort.SearchInts(b, pos)
	if i >= len(b) || b[i] != pos {
		return
	}
	copy(b[i:], b[i+1:])
	b = b[:len(b)-1]
	if len(b) == 0 {
		delete(ix.m, k)
		ix.removeKey(k)
		return
	}
	ix.m[k] = b
}

func (ix *index) insertKey(k key) {
	if k.k == KindString && !isASCII(k.s) {
		ix.nonASCII++
	}
	n := len(ix.keys)
	// Monotonically growing keys (sequential primary keys) append.
	if n == 0 || compareKey(ix.keys[n-1], k) < 0 {
		ix.keys = append(ix.keys, k)
		return
	}
	i := sort.Search(n, func(i int) bool { return compareKey(ix.keys[i], k) >= 0 })
	ix.keys = append(ix.keys, key{})
	copy(ix.keys[i+1:], ix.keys[i:])
	ix.keys[i] = k
}

func (ix *index) removeKey(k key) {
	i := sort.Search(len(ix.keys), func(i int) bool { return compareKey(ix.keys[i], k) >= 0 })
	if i < len(ix.keys) && ix.keys[i] == k {
		copy(ix.keys[i:], ix.keys[i+1:])
		ix.keys = ix.keys[:len(ix.keys)-1]
		if k.k == KindString && !isASCII(k.s) {
			ix.nonASCII--
		}
	}
}

// table is the physical storage for one table.
type table struct {
	name    string
	cols    []ColumnDef
	colIdx  map[string]int
	pk      int // primary key column index, or -1
	rows    []*row
	live    int
	indexes []*index
}

func (t *table) col(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, name)
	}
	return i, nil
}

// indexOn returns an index covering column c, or nil.
func (t *table) indexOn(c int) *index {
	for _, ix := range t.indexes {
		if ix.col == c {
			return ix
		}
	}
	return nil
}

// DB is an embedded relational database. Individual statements are atomic
// and safe for concurrent use; multi-statement transactions provide
// atomicity (rollback) via undo logging but rely on the caller for
// cross-transaction isolation — in the simulation the container layer
// serializes conflicting transactions, mirroring the paper's setup in which
// the database is never the bottleneck.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*table
	prepared map[string]Stmt
	// labels interns Describe's "verb table" span labels per statement text.
	labels map[string]string
	cost   CostModel

	// statements counts executed statements, for instrumentation.
	statements int64

	// epoch counts schema changes (CREATE/DROP TABLE, CREATE INDEX,
	// Restore). Cached query plans record the epoch they were built at and
	// rebuild when it moves.
	epoch int64

	// profiling records every successful statement's StatementInfo into
	// profile, so a Snapshot can replay the seed script's observer stream
	// into databases seeded by Restore.
	profiling bool
	profile   []StatementInfo

	// onWrite, when set, observes every successful mutating statement
	// (INSERT/UPDATE/DELETE with at least one affected row) with its SQL
	// text and bound arguments — the hook statement-based replication
	// (dbrepl) ships its log from.
	onWrite func(sql string, args []Value)

	// observer, when set, sees every successful statement's execution
	// profile — the metrics layer's view into the database.
	observer func(StatementInfo)
}

// StatementInfo describes one executed statement for an observer.
type StatementInfo struct {
	Verb      string // select, insert, update, delete, create-table, create-index, drop-table
	Table     string // target table (first FROM table for joins)
	Scanned   int    // rows examined (virtual: the cost model's view)
	Written   int    // rows inserted/updated/deleted
	Returned  int    // result rows
	IndexUsed bool   // a hash index narrowed the scan

	ScannedActual int  // rows the physical plan really visited
	IndexProbes   int  // index lookups performed
	Planned       bool // statement verb goes through the plan cache
	PlanHit       bool // plan was served from the cache
}

// New returns an empty database with the default cost model.
func New() *DB {
	return &DB{
		tables:   make(map[string]*table),
		prepared: make(map[string]Stmt),
		cost:     DefaultCostModel,
	}
}

// SetCostModel replaces the cost model (use before serving traffic).
func (db *DB) SetCostModel(c CostModel) { db.cost = c }

// Statements returns the number of statements executed so far.
func (db *DB) Statements() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.statements
}

// Tables returns the names of all tables.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

// RowCount returns the number of live rows in the named table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTable, tableName)
	}
	return t.live, nil
}

// Prepare parses sql once; later Exec calls with the same text reuse the
// parse. It is an error-checking convenience: Exec caches parses anyway.
func (db *DB) Prepare(sql string) (Stmt, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.prepareLocked(sql)
}

func (db *DB) prepareLocked(sql string) (Stmt, error) {
	if st, ok := db.prepared[sql]; ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	db.prepared[sql] = st
	return st, nil
}

// Describe returns a compact "verb table" label for sql ("select item",
// "update account"), parsing through the prepared-statement cache. Labels
// are interned alongside the parse, so repeated calls with the same
// statement text return the same string without allocating — tracing layers
// can label per-statement spans at no steady-state cost. Unparseable text
// is labeled "sql" (execution will surface the error).
func (db *DB) Describe(sql string) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	if label, ok := db.labels[sql]; ok {
		return label
	}
	label := "sql"
	if st, err := db.prepareLocked(sql); err == nil {
		label = describeStmt(st)
	}
	if db.labels == nil {
		db.labels = make(map[string]string)
	}
	db.labels[sql] = label
	return label
}

// describeStmt renders one parsed statement as "verb table".
func describeStmt(st Stmt) string {
	switch s := st.(type) {
	case *SelectStmt:
		if len(s.From) == 0 {
			return "select"
		}
		return "select " + s.From[0].Table
	case *InsertStmt:
		return "insert " + s.Table
	case *UpdateStmt:
		return "update " + s.Table
	case *DeleteStmt:
		return "delete " + s.Table
	case *CreateTableStmt:
		return "create-table " + s.Name
	case *CreateIndexStmt:
		return "create-index " + s.Table
	case *DropTableStmt:
		return "drop-table " + s.Name
	default:
		return "sql"
	}
}

// SetWriteHook registers fn to observe every successful mutating statement
// (statement-based replication log). Pass nil to disable. The hook runs
// synchronously with the statement, after it commits, outside db locks'
// caller view — it must not call back into the same DB.
func (db *DB) SetWriteHook(fn func(sql string, args []Value)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onWrite = fn
}

// SetObserver registers fn to observe every successfully executed statement
// (including transactional ones at execution time). Pass nil to disable.
// The observer runs synchronously under the database lock and must not call
// back into the same DB.
func (db *DB) SetObserver(fn func(StatementInfo)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observer = fn
}

// Exec parses (with caching) and executes one statement with ? parameters
// bound to args.
func (db *DB) Exec(sql string, args ...Value) (*Result, error) {
	db.mu.Lock()
	st, err := db.prepareLocked(sql)
	if err != nil {
		db.mu.Unlock()
		return nil, err
	}
	res, err := db.execLocked(st, args, nil)
	hook := db.onWrite
	db.mu.Unlock()
	if err == nil && hook != nil && isWrite(st) && res.Affected > 0 {
		hook(sql, args)
	}
	return res, err
}

// isWrite reports whether st mutates table contents.
func isWrite(st Stmt) bool {
	switch st.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		return true
	default:
		return false
	}
}

// Query is Exec; provided for call-site readability.
func (db *DB) Query(sql string, args ...Value) (*Result, error) {
	return db.Exec(sql, args...)
}

// Tx is a multi-statement transaction providing rollback via undo logging.
type Tx struct {
	db     *DB
	undo   []func()
	writes []txWrite
	done   bool
}

// txWrite is a committed write statement recorded for the replication hook.
type txWrite struct {
	sql  string
	args []Value
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{db: db} }

// Exec executes one statement inside the transaction. Write-hook
// notifications for transactional statements are deferred to Commit so that
// rolled-back statements are never replicated.
func (tx *Tx) Exec(sql string, args ...Value) (*Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	st, err := tx.db.prepareLocked(sql)
	if err != nil {
		return nil, err
	}
	res, err := tx.db.execLocked(st, args, tx)
	if err == nil && isWrite(st) && res.Affected > 0 {
		tx.writes = append(tx.writes, txWrite{sql: sql, args: append([]Value(nil), args...)})
	}
	return res, err
}

// Commit finishes the transaction, keeping its effects and notifying the
// write hook of every recorded statement in order.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.undo = nil
	tx.db.mu.Lock()
	hook := tx.db.onWrite
	tx.db.mu.Unlock()
	if hook != nil {
		for _, w := range tx.writes {
			hook(w.sql, w.args)
		}
	}
	tx.writes = nil
	return nil
}

// Rollback undoes every statement executed in the transaction.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.writes = nil
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	tx.undo = nil
	return nil
}

// execLocked dispatches a parsed statement. db.mu must be held.
func (db *DB) execLocked(st Stmt, args []Value, tx *Tx) (*Result, error) {
	db.statements++
	res, err := db.dispatchLocked(st, args, tx)
	if err == nil && (db.observer != nil || db.profiling) {
		info := statementInfo(st, res)
		if db.observer != nil {
			db.observer(info)
		}
		if db.profiling {
			db.profile = append(db.profile, info)
		}
	}
	return res, err
}

// statementInfo derives the observer's view of one executed statement.
func statementInfo(st Stmt, res *Result) StatementInfo {
	info := StatementInfo{
		Scanned:       res.Scanned,
		Returned:      len(res.Rows),
		IndexUsed:     res.IndexUsed,
		ScannedActual: res.ScannedActual,
		IndexProbes:   res.IndexProbes,
		PlanHit:       res.PlanCached,
	}
	switch s := st.(type) {
	case *SelectStmt:
		info.Verb, info.Planned = "select", true
		if len(s.From) > 0 {
			info.Table = s.From[0].Table
		}
	case *InsertStmt:
		info.Verb, info.Table, info.Written = "insert", s.Table, res.Affected
	case *UpdateStmt:
		info.Verb, info.Table, info.Written, info.Planned = "update", s.Table, res.Affected, true
	case *DeleteStmt:
		info.Verb, info.Table, info.Written, info.Planned = "delete", s.Table, res.Affected, true
	case *CreateTableStmt:
		info.Verb, info.Table = "create-table", s.Name
	case *CreateIndexStmt:
		info.Verb, info.Table = "create-index", s.Table
	case *DropTableStmt:
		info.Verb, info.Table = "drop-table", s.Name
	}
	return info
}

// dispatchLocked executes a parsed statement. db.mu must be held.
func (db *DB) dispatchLocked(st Stmt, args []Value, tx *Tx) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return db.execCreateTable(s)
	case *CreateIndexStmt:
		return db.execCreateIndex(s)
	case *DropTableStmt:
		return db.execDropTable(s)
	case *InsertStmt:
		return db.execInsert(s, args, tx)
	case *UpdateStmt:
		return db.execUpdate(s, args, tx)
	case *DeleteStmt:
		return db.execDelete(s, args, tx)
	case *SelectStmt:
		return db.execSelect(s, args)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

func (db *DB) execCreateTable(s *CreateTableStmt) (*Result, error) {
	if _, ok := db.tables[s.Name]; ok {
		return nil, fmt.Errorf("sqldb: table %s already exists", s.Name)
	}
	t := &table{
		name:   s.Name,
		cols:   append([]ColumnDef(nil), s.Cols...),
		colIdx: make(map[string]int, len(s.Cols)),
		pk:     -1,
	}
	for i, c := range s.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %s.%s", s.Name, c.Name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pk >= 0 {
				return nil, fmt.Errorf("sqldb: table %s has multiple primary keys", s.Name)
			}
			t.pk = i
		}
	}
	if t.pk >= 0 {
		t.indexes = append(t.indexes, &index{
			name:   s.Name + "_pk",
			col:    t.pk,
			unique: true,
			m:      make(map[key][]int),
		})
	}
	db.tables[s.Name] = t
	db.epoch++
	return &Result{Cost: db.cost.cost(0, 0, 0)}, nil
}

func (db *DB) execCreateIndex(s *CreateIndexStmt) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	c, err := t.col(s.Col)
	if err != nil {
		return nil, err
	}
	for _, ix := range t.indexes {
		if ix.name == s.Name {
			return nil, fmt.Errorf("sqldb: index %s already exists", s.Name)
		}
	}
	ix := &index{name: s.Name, col: c, unique: s.Unique, m: make(map[key][]int)}
	for pos, r := range t.rows {
		if r.dead {
			continue
		}
		k := r.vals[c].mapKey()
		if s.Unique && len(ix.m[k]) > 0 && !r.vals[c].IsNull() {
			return nil, fmt.Errorf("%w: building unique index %s", ErrDuplicateKey, s.Name)
		}
		ix.add(k, pos)
	}
	t.indexes = append(t.indexes, ix)
	db.epoch++
	return &Result{Cost: db.cost.cost(t.live, 0, 0)}, nil
}

func (db *DB) execDropTable(s *DropTableStmt) (*Result, error) {
	if _, ok := db.tables[s.Name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Name)
	}
	delete(db.tables, s.Name)
	db.epoch++
	return &Result{Cost: db.cost.cost(0, 0, 0)}, nil
}

func (db *DB) execInsert(s *InsertStmt, args []Value, tx *Tx) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	cols := s.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, name := range cols {
		c, err := t.col(name)
		if err != nil {
			return nil, err
		}
		colPos[i] = c
	}
	written := 0
	ctx := &evalCtx{params: args}
	// Track applied rows so a failure part-way through a multi-row insert
	// rolls the statement back (statements are atomic even in autocommit).
	applied := make([]int, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			db.undoInserts(t, applied)
			return nil, fmt.Errorf("sqldb: insert into %s: %d values for %d columns", s.Table, len(exprRow), len(cols))
		}
		vals := make([]Value, len(t.cols))
		for i, e := range exprRow {
			v, err := ctx.eval(e)
			if err != nil {
				db.undoInserts(t, applied)
				return nil, err
			}
			cv, err := coerce(v, t.cols[colPos[i]].Kind)
			if err != nil {
				db.undoInserts(t, applied)
				return nil, fmt.Errorf("insert %s.%s: %w", s.Table, cols[i], err)
			}
			vals[colPos[i]] = cv
		}
		if err := db.insertRow(t, vals, tx); err != nil {
			db.undoInserts(t, applied)
			return nil, err
		}
		applied = append(applied, len(t.rows)-1)
		written++
	}
	return &Result{Affected: written, Cost: db.cost.cost(0, written, 0)}, nil
}

// undoInserts tombstones rows applied by a failing multi-row insert. The
// rows also sit in the enclosing transaction's undo log (as kills), which is
// harmless: killing a dead row is a no-op.
func (db *DB) undoInserts(t *table, positions []int) {
	for i := len(positions) - 1; i >= 0; i-- {
		db.killRow(t, positions[i])
	}
}

// insertRow validates constraints and stores vals in t, logging undo in tx.
func (db *DB) insertRow(t *table, vals []Value, tx *Tx) error {
	for i, c := range t.cols {
		if c.NotNull && vals[i].IsNull() {
			return fmt.Errorf("%w: %s.%s", ErrNotNull, t.name, c.Name)
		}
	}
	for _, ix := range t.indexes {
		if ix.unique && !vals[ix.col].IsNull() && len(ix.m[vals[ix.col].mapKey()]) > 0 {
			return fmt.Errorf("%w: %s.%s = %v", ErrDuplicateKey, t.name, t.cols[ix.col].Name, vals[ix.col])
		}
	}
	pos := len(t.rows)
	t.rows = append(t.rows, &row{vals: vals})
	t.live++
	for _, ix := range t.indexes {
		ix.add(vals[ix.col].mapKey(), pos)
	}
	if tx != nil {
		tx.undo = append(tx.undo, func() { db.killRow(t, pos) })
	}
	return nil
}

// killRow tombstones the row at pos and removes it from all indexes.
func (db *DB) killRow(t *table, pos int) {
	r := t.rows[pos]
	if r.dead {
		return
	}
	r.dead = true
	t.live--
	for _, ix := range t.indexes {
		ix.remove(r.vals[ix.col].mapKey(), pos)
	}
}

// reviveRow resurrects a tombstoned row with the given values.
func (db *DB) reviveRow(t *table, pos int, vals []Value) {
	r := t.rows[pos]
	if !r.dead {
		return
	}
	r.dead = false
	r.vals = vals
	t.live++
	for _, ix := range t.indexes {
		ix.add(vals[ix.col].mapKey(), pos)
	}
}

func (db *DB) execUpdate(s *UpdateStmt, args []Value, tx *Tx) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	setPos := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		c, err := t.col(a.Col)
		if err != nil {
			return nil, err
		}
		setPos[i] = c
	}
	pl, hit := matchPlanCached(&s.plan, db, t, s.Where)
	positions, scanned, usedIndex, actual, probes, err := db.matchRowsPlanned(pl, s.Where, args)
	if err != nil {
		return nil, err
	}
	// Phase 1: evaluate and validate every row's new values so a failure
	// leaves the table untouched (statement atomicity).
	planned := make([][]Value, len(positions))
	ctx := evalCtx{params: args, tables: []boundTable{{name: s.Table, t: t}}}
	for i, pos := range positions {
		r := t.rows[pos]
		ctx.tables[0].vals = r.vals
		newVals := append([]Value(nil), r.vals...)
		for j, a := range s.Sets {
			v, err := ctx.eval(a.Expr)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.cols[setPos[j]].Kind)
			if err != nil {
				return nil, fmt.Errorf("update %s.%s: %w", s.Table, a.Col, err)
			}
			if t.cols[setPos[j]].NotNull && cv.IsNull() {
				return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, t.name, a.Col)
			}
			newVals[setPos[j]] = cv
		}
		planned[i] = newVals
	}
	// Phase 2: apply with undo-on-conflict so intra-statement unique
	// violations roll the whole statement back.
	applyRow := func(pos int, newVals []Value) {
		r := t.rows[pos]
		for _, ix := range t.indexes {
			oldK, newK := r.vals[ix.col].mapKey(), newVals[ix.col].mapKey()
			if oldK != newK {
				ix.remove(oldK, pos)
				ix.add(newK, pos)
			}
		}
		r.vals = newVals
	}
	type change struct {
		pos     int
		oldVals []Value
	}
	var applied []change
	rollback := func() {
		for i := len(applied) - 1; i >= 0; i-- {
			applyRow(applied[i].pos, applied[i].oldVals)
		}
	}
	for i, pos := range positions {
		r := t.rows[pos]
		newVals := planned[i]
		for _, ix := range t.indexes {
			if !ix.unique {
				continue
			}
			oldK, newK := r.vals[ix.col].mapKey(), newVals[ix.col].mapKey()
			if oldK != newK && !newVals[ix.col].IsNull() && len(ix.m[newK]) > 0 {
				rollback()
				return nil, fmt.Errorf("%w: %s.%s = %v", ErrDuplicateKey, t.name, t.cols[ix.col].Name, newVals[ix.col])
			}
		}
		oldVals := r.vals
		applyRow(pos, newVals)
		applied = append(applied, change{pos: pos, oldVals: oldVals})
		if tx != nil {
			pos, oldVals := pos, oldVals
			tx.undo = append(tx.undo, func() { applyRow(pos, oldVals) })
		}
	}
	return &Result{
		Affected:      len(applied),
		Scanned:       scanned,
		IndexUsed:     usedIndex,
		ScannedActual: actual,
		IndexProbes:   probes,
		PlanCached:    hit,
		Cost:          db.cost.cost(scanned, len(applied), 0),
	}, nil
}

func (db *DB) execDelete(s *DeleteStmt, args []Value, tx *Tx) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	pl, hit := matchPlanCached(&s.plan, db, t, s.Where)
	positions, scanned, usedIndex, actual, probes, err := db.matchRowsPlanned(pl, s.Where, args)
	if err != nil {
		return nil, err
	}
	for _, pos := range positions {
		oldVals := t.rows[pos].vals
		db.killRow(t, pos)
		if tx != nil {
			pos, oldVals := pos, oldVals
			tx.undo = append(tx.undo, func() { db.reviveRow(t, pos, oldVals) })
		}
	}
	return &Result{
		Affected:      len(positions),
		Scanned:       scanned,
		IndexUsed:     usedIndex,
		ScannedActual: actual,
		IndexProbes:   probes,
		PlanCached:    hit,
		Cost:          db.cost.cost(scanned, len(positions), 0),
	}, nil
}

// Prepared is a parsed statement bound to its database: a handle whose Exec
// skips the SQL-text map lookup and reuses the statement's cached plan.
type Prepared struct {
	db  *DB
	sql string
	st  Stmt
}

// PrepareStmt parses sql once and returns a reusable handle bound to db.
func (db *DB) PrepareStmt(sql string) (*Prepared, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, err := db.prepareLocked(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, sql: sql, st: st}, nil
}

// Exec executes the prepared statement with ? parameters bound to args. It
// behaves exactly like DB.Exec with the handle's SQL text.
func (p *Prepared) Exec(args ...Value) (*Result, error) {
	db := p.db
	db.mu.Lock()
	res, err := db.execLocked(p.st, args, nil)
	hook := db.onWrite
	db.mu.Unlock()
	if err == nil && hook != nil && isWrite(p.st) && res.Affected > 0 {
		hook(p.sql, args)
	}
	return res, err
}
