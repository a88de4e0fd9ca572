package serve

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// The fast JSON layer hand-rolls encoding and decoding for the fixed v1
// request/response schemas so the steady-state request path allocates
// nothing. The contract that keeps it honest:
//
//   - Decoding: the fast parser accepts exactly the canonical shapes —
//     known fields, plain ASCII strings, standard numbers. ANY deviation
//     (unknown field, escape sequence, null, syntax error, out-of-range
//     number, trailing data) returns errFallback, and the handler decodes
//     the same buffered body with encoding/json instead. Either decoder
//     only fills the request's values; one validate → core → encode tail
//     per endpoint runs after both, so a request's status and bytes do not
//     depend on how it was spelled.
//   - Encoding: the appenders reproduce encoding/json's output bytes
//     exactly (float formatting including the e-0X exponent cleanup,
//     HTML-escaped strings, the Encoder's trailing newline); tests pin
//     bit-identity over a golden corpus. They take finite floats only: the
//     cores refuse a non-finite prediction before anything is encoded.
var errFallback = errors.New("serve: fast parser fallback")

// --- decoding ---------------------------------------------------------------

type fastParser struct {
	b []byte
	i int
}

func (p *fastParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

func (p *fastParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *fastParser) done() bool {
	return p.i >= len(p.b)
}

// simpleString parses a plain-ASCII string with no escapes or control
// characters, returning the raw bytes between the quotes. Anything else
// falls back, so the bytes always equal what encoding/json would decode
// (it rewrites invalid UTF-8, which an error message would echo).
func (p *fastParser) simpleString() ([]byte, bool) {
	p.ws()
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// key parses `"name":` and returns the raw name bytes.
func (p *fastParser) key() ([]byte, bool) {
	s, ok := p.simpleString()
	if !ok {
		return nil, false
	}
	p.ws()
	if !p.eat(':') {
		return nil, false
	}
	return s, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// pow10tab holds the powers of ten exactly representable as float64.
var pow10tab = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number parses one JSON number. Typical values (≤19 significant digits,
// decimal exponent within ±22, mantissa ≤ 2^53) take the exact
// single-rounding fast path — provably identical to strconv.ParseFloat —
// and everything else routes through strconv on the raw bytes. A false
// return means invalid syntax or out-of-range, both of which the caller
// turns into an encoding/json fallback.
func (p *fastParser) number() (float64, bool) {
	start := p.i
	neg := p.eat('-')
	if p.done() {
		return 0, false
	}
	var mant uint64
	digits, exp10 := 0, 0
	huge := false
	switch c := p.b[p.i]; {
	case c == '0':
		p.i++
		digits = 1
		if !p.done() && isDigit(p.b[p.i]) {
			return 0, false // JSON forbids leading zeros
		}
	case c >= '1' && c <= '9':
		for !p.done() && isDigit(p.b[p.i]) {
			if digits < 19 {
				mant = mant*10 + uint64(p.b[p.i]-'0')
				digits++
			} else {
				huge = true
				exp10++
			}
			p.i++
		}
	default:
		return 0, false
	}
	if !p.done() && p.b[p.i] == '.' {
		p.i++
		if p.done() || !isDigit(p.b[p.i]) {
			return 0, false
		}
		for !p.done() && isDigit(p.b[p.i]) {
			if digits < 19 && !huge {
				mant = mant*10 + uint64(p.b[p.i]-'0')
				digits++
				exp10--
			} else {
				huge = true
			}
			p.i++
		}
	}
	if !p.done() && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		esign := 1
		if !p.done() && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			if p.b[p.i] == '-' {
				esign = -1
			}
			p.i++
		}
		if p.done() || !isDigit(p.b[p.i]) {
			return 0, false
		}
		e := 0
		for !p.done() && isDigit(p.b[p.i]) {
			if e < 10000 {
				e = e*10 + int(p.b[p.i]-'0')
			}
			p.i++
		}
		exp10 += esign * e
	}
	if !huge && mant <= 1<<53 && exp10 >= -22 && exp10 <= 22 {
		f := float64(mant)
		if exp10 > 0 {
			f *= pow10tab[exp10]
		} else if exp10 < 0 {
			f /= pow10tab[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// floatArray parses `[f, f, ...]` appending into out.
func (p *fastParser) floatArray(out []float64) ([]float64, bool) {
	p.ws()
	if !p.eat('[') {
		return out, false
	}
	p.ws()
	if p.eat(']') {
		return out, true
	}
	for {
		f, ok := p.number()
		if !ok {
			return out, false
		}
		out = append(out, f)
		p.ws()
		if !p.eat(',') {
			return out, p.eat(']')
		}
		p.ws()
	}
}

// parseFastVector parses {"features":[...], "<nameKey>":"..."} — the
// /v1/predict (nameKey "radio") and /v1/decide ("mode") bodies — into feats
// (reused storage) and the raw bytes of the optional name, nil when absent.
// Resolving the name is the handler's job, on either path.
func parseFastVector(b []byte, feats []float64, nameKey string) ([]float64, []byte, error) {
	p := fastParser{b: b}
	var name []byte
	p.ws()
	if !p.eat('{') {
		return feats, nil, errFallback
	}
	p.ws()
	for closed := p.eat('}'); !closed; {
		key, ok := p.key()
		if !ok {
			return feats, nil, errFallback
		}
		switch string(key) {
		case "features":
			feats, ok = p.floatArray(feats[:0])
		case nameKey:
			name, ok = p.simpleString()
		default:
			ok = false
		}
		if !ok {
			return feats, nil, errFallback
		}
		if closed, ok = p.next(); !ok {
			return feats, nil, errFallback
		}
	}
	if !p.end() {
		return feats, nil, errFallback
	}
	return feats, name, nil
}

// next follows an object member: after whitespace, a ',' continues the
// object and a '}' closes it (closed); anything else is invalid.
func (p *fastParser) next() (closed, valid bool) {
	p.ws()
	if p.eat(',') {
		p.ws()
		return false, true
	}
	return true, p.eat('}')
}

// end verifies nothing but whitespace trails the document (encoding/json
// 400s on trailing data; the fallback reproduces that).
func (p *fastParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// parseFastBatch parses {"features":[[...],[...],...]} into sc.vecs (rows
// beyond maxBatchRows are syntax-checked but not stored) and sc.rowLens
// (every row's arity, for validation). Returns the row count; a body
// without the key is an empty batch, as encoding/json decodes it.
func parseFastBatch(b []byte, sc *scratch) (int, error) {
	p := fastParser{b: b}
	rows := 0
	p.ws()
	if !p.eat('{') {
		return 0, errFallback
	}
	p.ws()
	for closed := p.eat('}'); !closed; {
		key, ok := p.key()
		if !ok || string(key) != "features" {
			return 0, errFallback
		}
		if rows, ok = p.rows(sc); !ok {
			return 0, errFallback
		}
		if closed, ok = p.next(); !ok {
			return 0, errFallback
		}
	}
	if !p.end() {
		return 0, errFallback
	}
	return rows, nil
}

// rows parses the outer features array row by row through sc.addRow.
func (p *fastParser) rows(sc *scratch) (int, bool) {
	sc.rowLens = sc.rowLens[:0]
	p.ws()
	if !p.eat('[') {
		return 0, false
	}
	p.ws()
	if p.eat(']') {
		return 0, true
	}
	for {
		var ok bool
		if sc.feats, ok = p.floatArray(sc.feats[:0]); !ok {
			return 0, false
		}
		sc.addRow(sc.feats)
		p.ws()
		if !p.eat(',') {
			return len(sc.rowLens), p.eat(']')
		}
		p.ws()
	}
}

// --- encoding ---------------------------------------------------------------

// appendJSONFloat appends a finite f exactly as encoding/json encodes a
// float64 (shortest representation; 'e' form outside [1e-6, 1e21) with the
// e-0X exponent shortened).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json's default (HTML-escaping)
// encoder would: ", \ and control characters escaped, plus <, > and & as
// \u00XX, invalid UTF-8 as �, and U+2028/U+2029 as \u202X.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
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

// appendPredictResponse renders predictResponse exactly as json.Encoder
// would, trailing newline included.
func appendPredictResponse(b []byte, seconds float64, gen uint64, radio string) []byte {
	b = append(b, `{"reading_seconds":`...)
	b = appendJSONFloat(b, seconds)
	b = append(b, `,"model_generation":`...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, `,"radio":`...)
	b = appendJSONString(b, radio)
	return append(b, '}', '\n')
}

// appendDecideResponse renders decideResponse (field order matches the
// struct, which is what encoding/json emits).
func appendDecideResponse(b []byte, r *decideResponse) []byte {
	b = append(b, `{"reading_seconds":`...)
	b = appendJSONFloat(b, r.ReadingSeconds)
	b = append(b, `,"switch":`...)
	b = strconv.AppendBool(b, r.Switch)
	b = append(b, `,"reason":`...)
	b = appendJSONString(b, r.Reason)
	b = append(b, `,"mode":`...)
	b = appendJSONString(b, r.Mode)
	b = append(b, `,"tp_s":`...)
	b = appendJSONFloat(b, r.TpSeconds)
	b = append(b, `,"td_s":`...)
	b = appendJSONFloat(b, r.TdSeconds)
	b = append(b, `,"model_generation":`...)
	b = strconv.AppendUint(b, r.ModelGeneration, 10)
	return append(b, '}', '\n')
}

// appendBatchResponse renders batchResponse.
func appendBatchResponse(b []byte, preds []float64, gen uint64) []byte {
	b = append(b, `{"reading_seconds":[`...)
	for i, f := range preds {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	b = append(b, `],"model_generation":`...)
	b = strconv.AppendUint(b, gen, 10)
	return append(b, '}', '\n')
}
