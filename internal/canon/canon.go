// Package canon is the shared canonical-JSON and content-checksum
// machinery under every persisted artifact in the repo: shard queue
// documents (cell partials, part-*.json, leases) and the ppserve
// result store both seal and verify documents through it, and the
// serve cache keys are derived from its canonical form. Canonical
// means whitespace- and key-order-insensitive and number-exact, with
// selected top-level members dropped (the embedded "checksum" field,
// which cannot cover itself). Two documents that differ only in
// formatting or member order therefore canonicalize to the same bytes,
// while any content change — a torn write, a truncated tail, a flipped
// bit, an edited field — changes them.
//
// The canonical form is defined as what encoding/json makes of the
// document when it is decoded into a map with json.Number values, the
// dropped members are deleted, and the map is re-marshaled compact with
// sorted keys. Canonicalize produces exactly those bytes in a single
// forward pass, without building the map: it validates the JSON as it
// goes and writes the canonical form straight into one output buffer.
//
//   - Object members are sorted by their decoded key bytes; of a
//     duplicated key the last one wins.
//   - Number literals are copied verbatim, which is the json.Number
//     contract: 64-bit accumulator sums above 2^53 re-emit digit for
//     digit.
//   - Strings already in json.Marshal's escaped form are copied as-is.
//     The rest are decoded (invalid UTF-8 and unpaired surrogate
//     escapes become U+FFFD) and re-escaped as json.Marshal does, with
//     <, > and & HTML-escaped and U+2028/U+2029 escaped.
//   - As with json.Decoder, bytes after the first value are ignored, a
//     top-level null canonicalizes to null, and any other non-object
//     top level is an error.
//
// The map-based definition is kept only as a test-only oracle
// (reference_test.go); a differential fuzz target and a corpus test
// over every committed JSON document hold the single pass to it byte
// for byte and error for error.
//
// Checksums are CRC-32C (Castagnoli) over the canonical bytes,
// rendered "crc32c:%08x". CRC-32C detects the corruption classes an
// artifact store sees (torn writes, bit rot) at 4 bytes per document;
// callers needing collision resistance against *distinct inputs* —
// cache keys, content addresses — hash the canonical bytes with
// SHA-256 instead (see internal/serve/key). The checksum member
// convention is shared repo-wide: a sealed document carries
// `"checksum":"crc32c:…"` computed over itself with that one member
// removed, so reformatting a document by hand does not invalidate it.
package canon

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C is the repo's artifact checksum function: CRC-32 with the
// Castagnoli polynomial.
func CRC32C(data []byte) uint32 { return crc32.Checksum(data, crcCastagnoli) }

const hexDigits = "0123456789abcdef"

// FormatChecksum renders a CRC-32C sum in the artifact convention.
func FormatChecksum(sum uint32) string {
	b := []byte("crc32c:00000000")
	for i := len(b) - 1; sum != 0; i-- {
		b[i] = hexDigits[sum&0xf]
		sum >>= 4
	}
	return string(b)
}

// Canonicalize parses one JSON object with exact numbers, drops the
// named top-level members, and renders it compact with sorted keys.
// The result is the document's canonical form: independent of
// whitespace, member order, and the dropped members' values.
func Canonicalize(doc []byte, drop ...string) ([]byte, error) {
	c := pool.Get().(*canonicalizer)
	defer c.release()
	out, err := c.run(doc, drop)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(out), nil
}

// Checksum computes the canonical content checksum of one document:
// Canonicalize with the given members dropped, then CRC-32C in the
// "crc32c:%08x" rendering. Sealed artifacts call it with "checksum"
// dropped, so the stored sum covers everything but itself.
func Checksum(doc []byte, drop ...string) (string, error) {
	c := pool.Get().(*canonicalizer)
	defer c.release()
	out, err := c.run(doc, drop)
	if err != nil {
		return "", err
	}
	return FormatChecksum(CRC32C(out)), nil
}

// maxDepth is encoding/json's nesting limit: a document whose arrays
// and objects nest deeper is rejected.
const maxDepth = 10000

// maxPooled bounds the scratch a pooled canonicalizer keeps, so one
// large document does not pin its buffers for the process lifetime.
const maxPooled = 1 << 20

var pool = sync.Pool{New: func() any { return new(canonicalizer) }}

// canonicalizer is the state of one pass. The member and key stacks
// are shared by all open objects: an object's entries sit above those
// of the objects enclosing it, and are popped when it closes.
type canonicalizer struct {
	in  []byte
	pos int
	out []byte

	members []member // members of the open objects, innermost last
	keys    []byte   // decoded keys that needed unescaping, innermost last
	str     []byte   // the decoded string value being re-escaped
	tmp     []byte   // an object body being reordered
}

// member is one written object member: its decoded key (a slice of
// the input or of keys) and its "key":value span in out.
type member struct {
	key        []byte
	start, end int
}

func (c *canonicalizer) release() {
	if cap(c.members) > maxPooled/40 { // a member is 40 bytes
		c.members = nil
	} else {
		clear(c.members[:cap(c.members)]) // drop references into the input
		c.members = c.members[:0]
	}
	c.in = nil
	for _, b := range []*[]byte{&c.out, &c.keys, &c.str, &c.tmp} {
		if cap(*b) > maxPooled {
			*b = nil
		}
	}
	pool.Put(c)
}

const errPrefix = "canon: canonicalize unparseable document: "

// run canonicalizes doc into c.out, which stays owned by c.
func (c *canonicalizer) run(doc []byte, drop []string) ([]byte, error) {
	c.in, c.pos, c.out = doc, 0, c.out[:0]
	c.keys, c.members = c.keys[:0], c.members[:0]
	c.skipSpace()
	switch {
	case c.peek() == '{':
		if err := c.object(1, drop); err != nil {
			return nil, err
		}
	case c.hasLiteral("null"):
		// json.Decoder stops after the first value, and a null decodes
		// to a nil map, which marshals as null.
		c.out = append(c.out, "null"...)
	case c.pos == len(c.in):
		return nil, c.errorAt(c.pos, "")
	default:
		return nil, errors.New(errPrefix + "top-level value is not an object")
	}
	return c.out, nil
}

func (c *canonicalizer) errorAt(i int, context string) error {
	if i >= len(c.in) {
		return errors.New(errPrefix + "unexpected end of JSON input")
	}
	return fmt.Errorf(errPrefix+"invalid character %q %s at offset %d", c.in[i], context, i)
}

func (c *canonicalizer) peek() byte {
	if c.pos < len(c.in) {
		return c.in[c.pos]
	}
	return 0
}

func (c *canonicalizer) skipSpace() {
	in, i := c.in, c.pos
	for i < len(in) && (in[i] == ' ' || in[i] == '\n' || in[i] == '\t' || in[i] == '\r') {
		i++
	}
	c.pos = i
}

func (c *canonicalizer) hasLiteral(lit string) bool {
	return len(c.in)-c.pos >= len(lit) && string(c.in[c.pos:c.pos+len(lit)]) == lit
}

// value canonicalizes the value after any whitespace at c.pos, nested
// depth-1 containers deep.
func (c *canonicalizer) value(depth int) error {
	c.skipSpace()
	switch b := c.peek(); {
	case b == '{':
		return c.object(depth+1, nil)
	case b == '[':
		return c.array(depth + 1)
	case b == '"':
		c.str = c.str[:0]
		_, err := c.quoted(&c.str)
		return err
	case b == 't':
		return c.literal("true")
	case b == 'f':
		return c.literal("false")
	case b == 'n':
		return c.literal("null")
	case b == '-' || '0' <= b && b <= '9':
		return c.number()
	}
	return c.errorAt(c.pos, "looking for beginning of value")
}

// object canonicalizes the object at c.pos, dropping the members named
// in drop. Members are written in input order; if that order is not
// strictly ascending by decoded key, the body is then reordered and
// duplicate keys collapsed to their last occurrence.
func (c *canonicalizer) object(depth int, drop []string) error {
	if depth > maxDepth {
		return errors.New(errPrefix + "exceeded max depth")
	}
	c.pos++
	c.out = append(c.out, '{')
	body, base, keysBase := len(c.out), len(c.members), len(c.keys)
	sorted := true
	c.skipSpace()
	if c.peek() == '}' {
		c.pos++
		c.out = append(c.out, '}')
		return nil
	}
	for {
		if c.peek() != '"' {
			return c.errorAt(c.pos, "looking for beginning of object key string")
		}
		mark := len(c.out)
		if len(c.members) > base {
			c.out = append(c.out, ',')
		}
		start := len(c.out)
		key, err := c.quoted(&c.keys)
		if err != nil {
			return err
		}
		c.skipSpace()
		if c.peek() != ':' {
			return c.errorAt(c.pos, "after object key")
		}
		c.pos++
		c.out = append(c.out, ':')
		if err := c.value(depth); err != nil {
			return err
		}
		if dropped(key, drop) {
			c.out = c.out[:mark]
		} else {
			if len(c.members) > base && bytes.Compare(key, c.members[len(c.members)-1].key) <= 0 {
				sorted = false
			}
			c.members = append(c.members, member{key, start, len(c.out)})
		}
		c.skipSpace()
		switch c.peek() {
		case ',':
			c.pos++
			c.skipSpace()
			continue
		case '}':
			c.pos++
		default:
			return c.errorAt(c.pos, "after object key:value pair")
		}
		break
	}
	if !sorted {
		c.reorder(body, c.members[base:])
	}
	c.members = c.members[:base]
	c.keys = c.keys[:keysBase]
	c.out = append(c.out, '}')
	return nil
}

func dropped(key []byte, drop []string) bool {
	for _, d := range drop {
		if string(key) == d {
			return true
		}
	}
	return false
}

// reorder rewrites the object body out[body:] with its members sorted
// by decoded key. The sort is stable, so among equal keys the last
// written comes last, and it alone is kept, as a map decode keeps it.
func (c *canonicalizer) reorder(body int, ms []member) {
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	c.tmp = append(c.tmp[:0], c.out[body:]...)
	c.out = c.out[:body]
	for i, m := range ms {
		if i+1 < len(ms) && bytes.Equal(m.key, ms[i+1].key) {
			continue
		}
		if len(c.out) > body {
			c.out = append(c.out, ',')
		}
		c.out = append(c.out, c.tmp[m.start-body:m.end-body]...)
	}
}

func (c *canonicalizer) array(depth int) error {
	if depth > maxDepth {
		return errors.New(errPrefix + "exceeded max depth")
	}
	c.pos++
	c.out = append(c.out, '[')
	c.skipSpace()
	if c.peek() == ']' {
		c.pos++
		c.out = append(c.out, ']')
		return nil
	}
	for {
		if err := c.value(depth); err != nil {
			return err
		}
		c.skipSpace()
		switch c.peek() {
		case ',':
			c.pos++
			c.out = append(c.out, ',')
		case ']':
			c.pos++
			c.out = append(c.out, ']')
			return nil
		default:
			return c.errorAt(c.pos, "after array element")
		}
	}
}

func (c *canonicalizer) literal(lit string) error {
	if !c.hasLiteral(lit) {
		i := c.pos
		for i < len(c.in) && i-c.pos < len(lit) && c.in[i] == lit[i-c.pos] {
			i++
		}
		return c.errorAt(i, "in literal "+lit)
	}
	c.out = append(c.out, lit...)
	c.pos += len(lit)
	return nil
}

// number copies the number literal at c.pos verbatim after checking
// it against the JSON grammar.
func (c *canonicalizer) number() error {
	in, i := c.in, c.pos
	if in[i] == '-' {
		i++
	}
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case i < len(in) && '1' <= in[i] && in[i] <= '9':
		i = skipDigits(in, i+1)
	default:
		return c.errorAt(i, "in numeric literal")
	}
	if i < len(in) && in[i] == '.' {
		if i++; i >= len(in) || !isDigit(in[i]) {
			return c.errorAt(i, "after decimal point in numeric literal")
		}
		i = skipDigits(in, i)
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		if i++; i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if i >= len(in) || !isDigit(in[i]) {
			return c.errorAt(i, "in exponent of numeric literal")
		}
		i = skipDigits(in, i)
	}
	c.out = append(c.out, in[c.pos:i]...)
	c.pos = i
	return nil
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func skipDigits(in []byte, i int) int {
	for i < len(in) && isDigit(in[i]) {
		i++
	}
	return i
}

// quoted canonicalizes the string literal at c.pos and returns its
// decoded content: the literal's own bytes when they are already
// canonical, otherwise the decoding appended to *scratch.
func (c *canonicalizer) quoted(scratch *[]byte) ([]byte, error) {
	raw, plain, err := c.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		c.out = append(c.out, '"')
		c.out = append(c.out, raw...)
		c.out = append(c.out, '"')
		return raw, nil
	}
	n := len(*scratch)
	*scratch = unquote(*scratch, raw)
	s := (*scratch)[n:len(*scratch):len(*scratch)]
	c.out = appendQuoted(c.out, s)
	return s, nil
}

// htmlSafe marks the ASCII bytes json.Marshal copies into a string
// unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// scanString validates the string literal at c.pos and moves past its
// closing quote. raw is the literal's body; plain reports that raw is
// already the canonical encoding of the decoded string: no escape, no
// HTML-escaped byte, valid UTF-8, no U+2028 or U+2029.
func (c *canonicalizer) scanString() (raw []byte, plain bool, err error) {
	in, start := c.in, c.pos+1
	plain = true
	for i := start; i < len(in); {
		b := in[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(in[i:])
			if size == 1 || r == '\u2028' || r == '\u2029' {
				plain = false
			}
			i += size
			continue
		}
		if htmlSafe[b] {
			i++
			continue
		}
		switch {
		case b == '"':
			c.pos = i + 1
			return in[start:i], plain, nil
		case b < ' ':
			return nil, false, c.errorAt(i, "in string literal")
		case b == '\\':
			plain = false
			if i+1 >= len(in) {
				return nil, false, c.errorAt(i+1, "in string escape code")
			}
			switch in[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(in) || !isHex(in[j]) {
						return nil, false, c.errorAt(j, "in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				return nil, false, c.errorAt(i+1, "in string escape code")
			}
		default: // '<', '>', '&'
			plain = false
			i++
		}
	}
	return nil, false, c.errorAt(len(in), "")
}

func isHex(b byte) bool {
	return isDigit(b) || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquote appends the decoded content of a validated string literal
// body to dst, by encoding/json's rules: invalid UTF-8 bytes and
// escapes of unpaired surrogates decode to U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch b := raw[i]; {
		case b == '\\' && raw[i+1] == 'u':
			r := getu4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, getu4(raw[i:])); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
		case b == '\\':
			dst = append(dst, unescaped[raw[i+1]])
			i += 2
		case b < utf8.RuneSelf:
			dst = append(dst, b)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, b := range s[2:6] {
		switch {
		case isDigit(b):
			b -= '0'
		case 'a' <= b && b <= 'f':
			b -= 'a' - 10
		case 'A' <= b && b <= 'F':
			b -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(b)
	}
	return r
}

// appendQuoted appends s, which is valid UTF-8, as json.Marshal
// quotes a string: HTML-sensitive bytes, quotes, backslashes, control
// bytes and U+2028/U+2029 escaped, everything else copied.
func appendQuoted(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(s[i:])
			if r == '\u2028' || r == '\u2029' {
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
				start = i + size
			}
			i += size
			continue
		}
		if htmlSafe[b] {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
