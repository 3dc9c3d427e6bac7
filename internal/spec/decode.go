package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"sysscale/internal/workload"
)

// decoder is the single-pass, recursive-descent decoder behind ReadJob
// and ReadJobs. It walks the body once and writes straight into Job
// and its nested types, reproducing encoding/json's observable
// semantics (with DisallowUnknownFields) for exactly these types: the
// same inputs are accepted and they decode to DeepEqual values.
// FuzzReadJobsMatchesStdlib holds it to that.
//
// The encoding/json rules it reproduces:
//   - keys match their field exactly first, then case-insensitively
//     under encoding/json's folding (so "VERSION" and "ſ" for "s"
//     match); an unknown key is an error;
//   - a repeated key decodes again into the same field: objects merge,
//     arrays decode element-wise into existing elements and truncate;
//   - null leaves structs, scalars and fixed arrays untouched and sets
//     slices and pointers to nil; [] is an empty non-nil slice;
//   - a fixed array zeroes its tail when the input is short and skips
//     (only syntax-checking) the input's extra elements;
//   - numbers follow the JSON grammar and convert with strconv exactly
//     as encoding/json does: an int field takes no fraction or
//     exponent, an unsigned one no sign, and a float out of range fails;
//   - nesting deeper than maxDepth is a syntax error.
//
// Rare inputs are handed to encoding/json on their own raw value, so
// their semantics cannot drift: strings holding a backslash or a
// non-ASCII byte, the embedded tracegen trace, the workload class
// (through workload.Class's own UnmarshalJSON) and policy params
// (through json.RawMessage's).
type decoder struct {
	data  []byte
	off   int
	depth int
	// key is the object key just read: a slice of data, or of an
	// unquoted copy for keys encoding/json had to unescape.
	key []byte

	// Scratch slices for fresh arrays (see decodeSlice), and caches of
	// values that repeat across the specs of one body.
	points  []Point
	phases  []workload.Phase
	strs    [64]string
	classes []classMemo
}

// classMemo remembers one workload class decode: the raw JSON value
// and the class it produced.
type classMemo struct {
	raw   string
	class workload.Class
}

// maxDepth is encoding/json's nesting limit: objects and arrays may
// nest 10000 deep, counting the outermost.
const maxDepth = 10000

// Field names of each decoded struct, in declaration order: the order
// in which encoding/json prefers the first of several case-insensitive
// matches. TestDecoderFieldTables pins them to the types' JSON names.
var (
	jobFields       = []string{"version", "platform", "workload", "policy", "run", "knobs"}
	platformFields  = []string{"csr", "dram", "ladder", "tdp_watts"}
	pointFields     = []string{"ddr_hz", "interco_hz", "mc_hz", "name", "vio", "vsa"}
	csrFields       = []string{"camera", "panels"}
	panelFields     = []string{"refresh_hz", "res"}
	workloadFields  = []string{"builtin", "inline", "trace"}
	traceRefFields  = []string{"index", "trace"}
	policyFields    = []string{"name", "params", "wrap"}
	runFields       = []string{"duration_ns", "eval_interval_ns", "fixed_core_hz", "fixed_gfx_hz", "record_events", "sample_interval_ns", "seed", "trace_power"}
	knobsFields     = []string{"disable_pbm_memo", "disable_span_batching", "disable_span_cache", "disable_tick_memo"}
	wlFields        = []string{"Name", "Class", "Phases"}
	phaseFields     = []string{"Duration", "CoreFrac", "GfxFrac", "MemLatFrac", "MemBWFrac", "IOFrac", "MemBW", "IOBW", "ActiveCores", "CoreActivity", "GfxActivity", "Residency"}
	residencyFields = []string{"C0", "C2", "C6", "C8"}
)

// errorf reports a decoding error at the current offset.
func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the current offset (or the end of
// input) as a syntax error.
func (d *decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of input %s", context)
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

// mismatch reports a value whose JSON type cannot go into the field.
func (d *decoder) mismatch(into string) error {
	return d.errorf("cannot decode %s into %s", d.kind(), into)
}

// kind names the JSON type of the value at the current offset.
func (d *decoder) kind() string {
	switch d.data[d.off] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// ws skips JSON whitespace and reports whether input remains. Like
// the other scanning loops it works on locals, which the compiler
// keeps in registers.
func (d *decoder) ws() bool {
	data, i := d.data, d.off
	for ; i < len(data); i++ {
		if c := data[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.off = i
			return true
		}
	}
	d.off = i
	return false
}

// literal consumes the literal word (true, false or null) at the
// current offset.
func (d *decoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		for i := 0; i < len(word) && d.off < len(d.data) && d.data[d.off] == word[i]; i++ {
			d.off++
		}
		return d.unexpected("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// null consumes a null literal if one is next, reporting whether it
// did. The caller has already skipped whitespace.
func (d *decoder) null() (bool, error) {
	if d.data[d.off] != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// number consumes a number under the JSON grammar and returns its
// bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case d.off < len(d.data) && '1' <= d.data[d.off] && d.data[d.off] <= '9':
		d.digits()
	default:
		return nil, d.unexpected("in numeric literal")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if !d.digits() {
			return nil, d.unexpected("after decimal point in numeric literal")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if !d.digits() {
			return nil, d.unexpected("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits, reporting whether there was
// at least one.
func (d *decoder) digits() bool {
	data, i := d.data, d.off
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	start := d.off
	d.off = i
	return i > start
}

// str consumes a string literal and returns it with its quotes, and
// whether it is plain: free of escapes and non-ASCII bytes, so its
// contents are its value.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	start := d.off
	d.off++ // opening quote
	plain = true
	for d.off < len(d.data) {
		// Run through the bytes that need no attention.
		data, i := d.data, d.off
		for i < len(data) && data[i] >= 0x20 && data[i] != '"' && data[i] != '\\' && data[i] < utf8.RuneSelf {
			i++
		}
		d.off = i
		if i == len(data) {
			break
		}
		c := data[i]
		switch {
		case c == '"':
			d.off++
			return d.data[start:d.off], plain, nil
		case c == '\\':
			plain = false
			d.off++
			if d.off >= len(d.data) {
				return nil, false, d.unexpected("in string escape code")
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off >= len(d.data) || !isHex(d.data[d.off]) {
						return nil, false, d.unexpected("in \\u hexadecimal character escape")
					}
					d.off++
				}
			default:
				return nil, false, d.unexpected("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.unexpected("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.off++
		}
	}
	return nil, false, d.unexpected("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// open consumes the opening bracket of an object or array and checks
// the nesting limit.
func (d *decoder) open() error {
	d.off++
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// skip consumes one value of any type, checking only its syntax.
func (d *decoder) skip() error {
	if !d.ws() {
		return d.unexpected("looking for beginning of value")
	}
	switch c := d.data[d.off]; {
	case c == '{':
		more, err := d.object()
		for ; more; more, err = d.member() {
			if err := d.skip(); err != nil {
				return err
			}
		}
		return err
	case c == '[':
		more, err := d.array()
		for ; more; more, err = d.element() {
			if err := d.skip(); err != nil {
				return err
			}
		}
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.unexpected("looking for beginning of value")
}

// rawValue consumes one value and returns its bytes, whitespace
// excluded.
func (d *decoder) rawValue() ([]byte, error) {
	if !d.ws() {
		return nil, d.unexpected("looking for beginning of value")
	}
	start := d.off
	if err := d.skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.off], nil
}

// object consumes the opening brace of an object and its first key,
// reporting whether there is a member to decode.
func (d *decoder) object() (bool, error) {
	if err := d.open(); err != nil {
		return false, err
	}
	if !d.ws() {
		return false, d.unexpected("looking for beginning of object key string")
	}
	if d.data[d.off] == '}' {
		d.off++
		d.depth--
		return false, nil
	}
	if err := d.readKey(); err != nil {
		return false, err
	}
	return true, nil
}

// member moves past a member's value to the next key, reporting
// whether there is one.
func (d *decoder) member() (bool, error) {
	if !d.ws() {
		return false, d.unexpected("after object key:value pair")
	}
	switch d.data[d.off] {
	case ',':
		d.off++
		if err := d.readKey(); err != nil {
			return false, err
		}
		return true, nil
	case '}':
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.unexpected("after object key:value pair")
}

// readKey consumes an object key and its colon into d.key.
func (d *decoder) readKey() error {
	if !d.ws() || d.data[d.off] != '"' {
		return d.unexpected("looking for beginning of object key string")
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if plain {
		d.key = raw[1 : len(raw)-1]
	} else {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		d.key = []byte(s)
	}
	if !d.ws() || d.data[d.off] != ':' {
		return d.unexpected("after object key")
	}
	d.off++
	return nil
}

// array consumes the opening bracket of an array, reporting whether
// an element follows.
func (d *decoder) array() (bool, error) {
	if err := d.open(); err != nil {
		return false, err
	}
	if d.ws() && d.data[d.off] == ']' {
		d.off++
		d.depth--
		return false, nil
	}
	return true, nil
}

// element moves past an element to the next one, reporting whether
// there is one.
func (d *decoder) element() (bool, error) {
	if !d.ws() {
		return false, d.unexpected("after array element")
	}
	switch d.data[d.off] {
	case ',':
		d.off++
		return true, nil
	case ']':
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.unexpected("after array element")
}

// structStart begins decoding a struct-typed field. It reports whether
// an object with at least one member follows: null and {} leave the
// struct as it is.
func (d *decoder) structStart(into string) (bool, error) {
	if !d.ws() {
		return false, d.unexpected("looking for beginning of value")
	}
	if null, err := d.null(); null || err != nil {
		return false, err
	}
	if d.data[d.off] != '{' {
		return false, d.mismatch(into)
	}
	return d.object()
}

// arrayStart begins decoding a slice- or array-typed field: it
// reports whether the value is null, and otherwise consumes the
// opening bracket and reports whether an element follows.
func (d *decoder) arrayStart(into string) (null, more bool, err error) {
	if !d.ws() {
		return false, false, d.unexpected("looking for beginning of value")
	}
	if null, err := d.null(); null || err != nil {
		return null, false, err
	}
	if d.data[d.off] != '[' {
		return false, false, d.mismatch(into)
	}
	more, err = d.array()
	return false, more, err
}

// field returns the index in names of the field d.key selects, or -1:
// an exact match first, then the first case-insensitive one.
func (d *decoder) field(names []string) int {
	for i, n := range names {
		if string(d.key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(d.key, n) {
			return i
		}
	}
	return -1
}

// unknown reports a key that selects no field.
func (d *decoder) unknown() error {
	return d.errorf("unknown field %q", d.key)
}

// foldEqual reports whether key matches the ASCII field name under
// encoding/json's folding: each rune maps to the smallest rune of its
// Unicode simple-fold orbit, ASCII letters to upper case.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		i += n
		if j >= len(name) || upperASCII(r) != upperASCII(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upperASCII(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// decodeSlice decodes a JSON array into *s as encoding/json does: null
// sets nil, [] an empty non-nil slice, and an array decodes element-
// wise into any existing elements before truncating to its length. A
// slice that starts empty is assembled in scratch (when given) and
// copied out, so it costs one allocation whatever its length.
func decodeSlice[T any](d *decoder, s *[]T, scratch *[]T, into string, elem func(*decoder, *T) error) error {
	null, more, err := d.arrayStart(into)
	if null || err != nil {
		if null {
			*s = nil
		}
		return err
	}
	buf := *s
	fresh := cap(buf) == 0 && scratch != nil
	if fresh {
		buf = (*scratch)[:0]
	}
	i := 0
	var zero T
	for ; more; more, err = d.element() {
		switch {
		case i >= cap(buf):
			buf = append(buf, zero)
		case i >= len(buf):
			buf = buf[:i+1]
			if fresh {
				buf[i] = zero
			}
		}
		if err := elem(d, &buf[i]); err != nil {
			return err
		}
		i++
	}
	if err != nil {
		return err
	}
	switch {
	case i == 0:
		*s = []T{}
	case fresh:
		*s = append(make([]T, 0, i), buf[:i]...)
		*scratch = buf[:0]
	default:
		*s = buf[:i]
	}
	return nil
}

// string decodes a string field: plain strings directly (interned
// across the body, where names repeat from spec to spec), others
// through encoding/json.
func (d *decoder) string(p *string) error {
	if !d.ws() {
		return d.unexpected("looking for beginning of value")
	}
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.data[d.off] != '"' {
		return d.mismatch("string")
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if !plain {
		return json.Unmarshal(raw, p)
	}
	*p = d.intern(raw[1 : len(raw)-1])
	return nil
}

// intern returns b as a string, reusing an earlier copy of the same
// bytes from this body when one is cached.
func (d *decoder) intern(b []byte) string {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.strs[h%uint32(len(d.strs))]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// numeral reads a number for a numeric field. It returns nil for null,
// which leaves the field untouched.
func (d *decoder) numeral(into string) ([]byte, error) {
	if !d.ws() {
		return nil, d.unexpected("looking for beginning of value")
	}
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if c := d.data[d.off]; c != '-' && (c < '0' || c > '9') {
		return nil, d.mismatch(into)
	}
	return d.number()
}

func (d *decoder) float(p *float64) error {
	num, err := d.numeral("float64")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.errorf("cannot decode number %s into float64", num)
	}
	*p = v
	return nil
}

func (d *decoder) int64(p *int64) error {
	num, err := d.numeral("int64")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into int64", num)
	}
	*p = v
	return nil
}

func (d *decoder) int(p *int) error {
	v := int64(*p)
	if err := d.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return d.errorf("cannot decode number %d into int", v)
	}
	*p = int(v)
	return nil
}

func (d *decoder) uint64(p *uint64) error {
	num, err := d.numeral("uint64")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into uint64", num)
	}
	*p = v
	return nil
}

func (d *decoder) bool(p *bool) error {
	if !d.ws() {
		return d.unexpected("looking for beginning of value")
	}
	switch d.data[d.off] {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

func (d *decoder) job(j *Job) error {
	more, err := d.structStart("spec.Job")
	for ; more; more, err = d.member() {
		switch d.field(jobFields) {
		case 0:
			err = d.int(&j.Version)
		case 1:
			err = d.platform(&j.Platform)
		case 2:
			err = d.workloadRef(&j.Workload)
		case 3:
			err = d.policy(&j.Policy)
		case 4:
			err = d.run(&j.Run)
		case 5:
			err = d.knobs(&j.Knobs)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) platform(p *Platform) error {
	more, err := d.structStart("spec.Platform")
	for ; more; more, err = d.member() {
		switch d.field(platformFields) {
		case 0:
			err = d.csr(&p.CSR)
		case 1:
			err = d.string(&p.DRAM)
		case 2:
			err = decodeSlice(d, &p.Ladder, &d.points, "[]spec.Point", (*decoder).point)
		case 3:
			err = d.float(&p.TDPWatts)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) point(p *Point) error {
	more, err := d.structStart("spec.Point")
	for ; more; more, err = d.member() {
		switch d.field(pointFields) {
		case 0:
			err = d.float(&p.DDRHz)
		case 1:
			err = d.float(&p.IntercoHz)
		case 2:
			err = d.float(&p.MCHz)
		case 3:
			err = d.string(&p.Name)
		case 4:
			err = d.float(&p.VIO)
		case 5:
			err = d.float(&p.VSA)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) csr(c *CSR) error {
	more, err := d.structStart("spec.CSR")
	for ; more; more, err = d.member() {
		switch d.field(csrFields) {
		case 0:
			err = d.string(&c.Camera)
		case 1:
			err = d.panels(&c.Panels)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

// panels decodes the fixed-length head array: elements past its
// length are skipped and a short input zeroes the tail.
func (d *decoder) panels(a *[numPanels]PanelCfg) error {
	null, more, err := d.arrayStart("[3]spec.PanelCfg")
	if null || err != nil {
		return err
	}
	i := 0
	for ; more; more, err = d.element() {
		if i < len(a) {
			err = d.panel(&a[i])
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		i++
	}
	if err != nil {
		return err
	}
	for ; i < len(a); i++ {
		a[i] = PanelCfg{}
	}
	return nil
}

func (d *decoder) panel(p *PanelCfg) error {
	more, err := d.structStart("spec.PanelCfg")
	for ; more; more, err = d.member() {
		switch d.field(panelFields) {
		case 0:
			err = d.float(&p.RefreshHz)
		case 1:
			err = d.string(&p.Res)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) workloadRef(w *WorkloadRef) error {
	more, err := d.structStart("spec.WorkloadRef")
	for ; more; more, err = d.member() {
		switch d.field(workloadFields) {
		case 0:
			err = d.string(&w.Builtin)
		case 1:
			err = d.inline(&w.Inline)
		case 2:
			err = d.traceRef(&w.Trace)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

// pointer prepares a pointer field for the next value: null sets it
// to nil and reports false; anything else allocates it if it is nil
// and reports true.
func pointer[T any](d *decoder, p **T) (bool, error) {
	if !d.ws() {
		return false, d.unexpected("looking for beginning of value")
	}
	if null, err := d.null(); null || err != nil {
		if null {
			*p = nil
		}
		return false, err
	}
	if *p == nil {
		*p = new(T)
	}
	return true, nil
}

func (d *decoder) inline(p **workload.Workload) error {
	if ok, err := pointer(d, p); !ok {
		return err
	}
	w := *p
	more, err := d.structStart("workload.Workload")
	for ; more; more, err = d.member() {
		switch d.field(wlFields) {
		case 0:
			err = d.string(&w.Name)
		case 1:
			err = d.class(&w.Class)
		case 2:
			err = decodeSlice(d, &w.Phases, &d.phases, "[]workload.Phase", (*decoder).phase)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

// class decodes a workload class through its own UnmarshalJSON, once
// per distinct raw value in the body.
func (d *decoder) class(c *workload.Class) error {
	raw, err := d.rawValue()
	if err != nil {
		return err
	}
	for _, m := range d.classes {
		if m.raw == string(raw) {
			*c = m.class
			return nil
		}
	}
	if err := c.UnmarshalJSON(raw); err != nil {
		return err
	}
	d.classes = append(d.classes, classMemo{string(raw), *c})
	return nil
}

func (d *decoder) phase(p *workload.Phase) error {
	more, err := d.structStart("workload.Phase")
	for ; more; more, err = d.member() {
		switch d.field(phaseFields) {
		case 0:
			err = d.int64((*int64)(&p.Duration))
		case 1:
			err = d.float(&p.CoreFrac)
		case 2:
			err = d.float(&p.GfxFrac)
		case 3:
			err = d.float(&p.MemLatFrac)
		case 4:
			err = d.float(&p.MemBWFrac)
		case 5:
			err = d.float(&p.IOFrac)
		case 6:
			err = d.float(&p.MemBW)
		case 7:
			err = d.float(&p.IOBW)
		case 8:
			err = d.int(&p.ActiveCores)
		case 9:
			err = d.float(&p.CoreActivity)
		case 10:
			err = d.float(&p.GfxActivity)
		case 11:
			err = d.residency(p)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) residency(p *workload.Phase) error {
	r := &p.Residency
	more, err := d.structStart("compute.Residency")
	for ; more; more, err = d.member() {
		switch d.field(residencyFields) {
		case 0:
			err = d.float(&r.C0)
		case 1:
			err = d.float(&r.C2)
		case 2:
			err = d.float(&r.C6)
		case 3:
			err = d.float(&r.C8)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) traceRef(p **TraceRef) error {
	if ok, err := pointer(d, p); !ok {
		return err
	}
	t := *p
	more, err := d.structStart("spec.TraceRef")
	for ; more; more, err = d.member() {
		switch d.field(traceRefFields) {
		case 0:
			err = d.int(&t.Index)
		case 1:
			err = d.trace(t)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

// trace decodes the embedded tracegen trace with encoding/json, into
// the existing value as a repeated key would.
func (d *decoder) trace(t *TraceRef) error {
	raw, err := d.rawValue()
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(&t.Trace)
}

func (d *decoder) policy(p *Policy) error {
	more, err := d.structStart("spec.Policy")
	for ; more; more, err = d.member() {
		switch d.field(policyFields) {
		case 0:
			err = d.string(&p.Name)
		case 1:
			var raw []byte
			if raw, err = d.rawValue(); err == nil {
				err = p.Params.UnmarshalJSON(raw)
			}
		case 2:
			err = decodeSlice(d, &p.Wrap, nil, "[]string", (*decoder).string)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) run(r *Run) error {
	more, err := d.structStart("spec.Run")
	for ; more; more, err = d.member() {
		switch d.field(runFields) {
		case 0:
			err = d.int64(&r.DurationNS)
		case 1:
			err = d.int64(&r.EvalIntervalNS)
		case 2:
			err = d.float(&r.FixedCoreHz)
		case 3:
			err = d.float(&r.FixedGfxHz)
		case 4:
			err = d.bool(&r.RecordEvents)
		case 5:
			err = d.int64(&r.SampleIntervalNS)
		case 6:
			err = d.uint64(&r.Seed)
		case 7:
			err = d.bool(&r.TracePower)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}

func (d *decoder) knobs(k *Knobs) error {
	more, err := d.structStart("spec.Knobs")
	for ; more; more, err = d.member() {
		switch d.field(knobsFields) {
		case 0:
			err = d.bool(&k.DisablePBMMemo)
		case 1:
			err = d.bool(&k.DisableSpanBatching)
		case 2:
			err = d.bool(&k.DisableSpanCache)
		case 3:
			err = d.bool(&k.DisableTickMemo)
		default:
			err = d.unknown()
		}
		if err != nil {
			return err
		}
	}
	return err
}
