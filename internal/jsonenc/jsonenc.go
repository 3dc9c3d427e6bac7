// Package jsonenc provides allocation-free appenders for the canonical
// JSON encoding used by the job-spec layer (internal/spec) and the
// policy parameter codecs (internal/policy).
//
// The canonical form is defined as: the JSON produced by encoding/json
// for the normalized spec value, with object keys sorted and all
// insignificant whitespace removed. These appenders reproduce
// encoding/json's value renderings exactly — the same float shortening
// and exponent style, the same string escaping (including HTML-unsafe
// runes, with invalid UTF-8 escaped as U+FFFD) — so canonical bytes
// built directly from a
// live soc.Config byte-match the sort-and-compact of the marshaled
// spec. That equivalence is what makes the engine's cache key
// reproducible outside the process: any JSON implementation that can
// sort keys and keep number literals verbatim derives the same bytes.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends a float64 exactly as encoding/json renders it:
// the shortest representation that round-trips, formatted 'f' except
// for very large or very small magnitudes, which use 'e' with the
// exponent's leading zero trimmed. NaN and infinities have no JSON
// rendering; ok is false for them (encoding/json refuses to marshal
// such values, so they cannot appear in a spec file either).
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendInt appends a decimal int64 (identical to encoding/json).
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// AppendBool appends true or false.
func AppendBool(b []byte, v bool) []byte { return strconv.AppendBool(b, v) }

const hexDigits = "0123456789abcdef"

// AppendString appends a quoted JSON string exactly as encoding/json
// renders it with the default (HTML-escaping) encoder: control
// characters as \uXXXX (with \t, \n, \r shorthands), quote and
// backslash escaped, '<', '>' and '&' escaped for HTML safety, the
// line separators U+2028/U+2029 escaped for JavaScript safety, and
// invalid UTF-8 bytes written as the \ufffd escape.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safeASCII(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control characters, plus <, > and &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// safeASCII reports whether the byte passes through encoding/json's
// default encoder unescaped.
func safeASCII(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}
