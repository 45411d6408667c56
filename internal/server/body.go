package server

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
)

// maxPresizeBytes bounds the buffer a declared Content-Length reserves
// before any body bytes arrive. The header is the client's word, not
// data: a request that declares the 100 MiB cap and sends nothing must
// not make the server hold 100 MiB. 4 MiB covers the bodies clients
// send in practice (a delivered minute of video, a batch of VPs).
const maxPresizeBytes = 4 << 20

// readBody reads a request body, capped at maxUploadBytes, into one
// buffer. A declared Content-Length sizes the buffer up front, to at
// most maxPresizeBytes, so a body of that length is read without
// regrowing; the extra bytes.MinRead lets ReadFrom see EOF without
// growing a full buffer. Past that reservation, and without a declared
// length, the buffer grows by doubling as bytes arrive. A body that ends before its
// declared length fails with the transport's error, even when what
// arrived would decode.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresizeBytes-bytes.MinRead)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxUploadBytes))
	return buf.Bytes(), err
}

// decodeDeliver reads a delivery body and decodes it: in one pass by
// parseDeliver when the body is in the canonical subset, and otherwise
// by decodeJSONFrom, which stays the one definition of the accepted
// grammar. Both give the same request for any body parseDeliver
// accepts (FuzzDeliverDecode).
func decodeDeliver(r *http.Request) (deliverRequest, error) {
	body, err := readBody(r)
	if err != nil {
		return deliverRequest{}, err
	}
	if req, ok := parseDeliver(body); ok {
		return req, nil
	}
	var req deliverRequest
	err = decodeJSONFrom(bytes.NewReader(body), &req)
	return req, err
}

// parseDeliver decodes the canonical delivery body: one object between
// JSON whitespace, whose keys are exactly "id", "secret" and "chunks",
// each at most once and in any order; id and secret strings of
// printable ASCII without escapes; chunks an array of strings without
// escapes or raw line breaks, each base64-decoded straight from the
// body bytes. Bytes after the closing brace are ignored, as
// json.Decoder ignores them. It reports false for any other body
// (escapes, null, numbers, unknown, repeated or case-folded keys,
// truncation, a chunk that is not valid base64), and so for every body
// encoding/json would refuse.
//
// The line-break check matters: base64.StdEncoding skips raw CR and
// LF, which encoding/json refuses inside a string.
func parseDeliver(body []byte) (deliverRequest, bool) {
	var req deliverRequest
	p := deliverParser{b: body}
	p.space()
	if !p.take('{') {
		return req, false
	}
	p.space()
	if p.take('}') {
		return req, true
	}
	var seen [len(deliverKeys)]bool
	for {
		k := p.key()
		if k < 0 || seen[k] {
			return req, false
		}
		seen[k] = true
		p.space()
		if !p.take(':') {
			return req, false
		}
		p.space()
		ok := false
		switch k {
		case 0:
			req.ID, ok = p.text()
		case 1:
			req.Secret, ok = p.text()
		case 2:
			req.Chunks, ok = p.chunks()
		}
		if !ok {
			return req, false
		}
		p.space()
		if p.take('}') {
			return req, true
		}
		if !p.take(',') {
			return req, false
		}
		p.space()
	}
}

// deliverKeys are the keys parseDeliver accepts, each with its closing
// quote, in the order of its key indices.
var deliverKeys = [...]string{`id"`, `secret"`, `chunks"`}

// deliverParser is parseDeliver's cursor over the body.
type deliverParser struct {
	b []byte
	i int
	// out is the decoded bytes of every chunk, allocated at the first
	// chunk with room for all of the body that is left.
	out []byte
}

// space skips JSON whitespace.
func (p *deliverParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next byte.
func (p *deliverParser) take(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes a quoted key and returns its index in deliverKeys, or -1
// when it is not one of them byte for byte.
func (p *deliverParser) key() int {
	if !p.take('"') {
		return -1
	}
	for k, name := range deliverKeys {
		if len(p.b)-p.i >= len(name) && string(p.b[p.i:p.i+len(name)]) == name {
			p.i += len(name)
			return k
		}
	}
	return -1
}

// text consumes a string of printable ASCII without escapes.
func (p *deliverParser) text() (string, bool) {
	if !p.take('"') {
		return "", false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return string(p.b[start : p.i-1]), true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// chunks consumes an array of base64 strings and decodes each into a
// slice of p.out.
func (p *deliverParser) chunks() ([]chunkJSON, bool) {
	if !p.take('[') {
		return nil, false
	}
	out := []chunkJSON{}
	p.space()
	if p.take(']') {
		return out, true
	}
	for {
		if !p.take('"') {
			return nil, false
		}
		end := bytes.IndexByte(p.b[p.i:], '"')
		if end < 0 {
			return nil, false
		}
		lit := p.b[p.i : p.i+end]
		if bytes.IndexByte(lit, '\\') >= 0 || bytes.IndexByte(lit, '\n') >= 0 || bytes.IndexByte(lit, '\r') >= 0 {
			return nil, false
		}
		if p.out == nil {
			p.out = make([]byte, base64.StdEncoding.DecodedLen(len(p.b)-p.i))
		}
		n, err := base64.StdEncoding.Decode(p.out, lit)
		if err != nil {
			return nil, false
		}
		out = append(out, chunkJSON(p.out[:n:n]))
		p.out = p.out[n:]
		p.i += end + 1
		p.space()
		if p.take(']') {
			return out, true
		}
		if !p.take(',') {
			return nil, false
		}
		p.space()
	}
}
