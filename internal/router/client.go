package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the router's HTTP/1.1 client, one per shard. A call writes
// its request as one buffer on a pooled keep-alive connection and reads
// the answer on the calling goroutine, so a hop crosses no goroutine and
// builds no http.Request, http.Response or header map. The answer parser
// accepts a subset of what net/http's ReadResponse accepts
// (FuzzShardAnswer): a 2xx–5xx status line, headers of which it keeps
// five, and a Content-Length, chunked or read-to-close body.

const (
	// maxAnswerHeader caps an answer's status line and header block, as
	// net/http's MaxResponseHeaderBytes does; dwsd's take under 300 bytes.
	// No one line may outgrow the connection's 4 KB read buffer either.
	maxAnswerHeader = 64 << 10
	// maxAnswerBody caps the body read into memory.
	maxAnswerBody = 64 << 20
	// keepBody is the largest body buffer a pooled connection keeps.
	keepBody = 64 << 10
)

// The answer headers the relay copies, as indices into relayedHeaders.
const (
	hContentType = iota
	hRetryAfter
	hRejectReason
)

// errMalformed is every answer the parser refuses.
var errMalformed = errors.New("router: malformed shard answer")

// answer is a shard's answer as the router reads it. hdr holds the first
// value of each relayed header, nil when absent, as a one-element slice
// the relay stores in its client's header map as is; common values share
// one slice. body aliases the connection's buffer until the call is done.
type answer struct {
	status int
	hdr    [len(relayedHeaders)][]string
	close  bool // the shard closes the connection after this answer
	body   []byte
}

// value is the first value of relayed header i, "" when absent.
func (a *answer) value(i int) string {
	if v := a.hdr[i]; v != nil {
		return v[0]
	}
	return ""
}

// retrySeconds parses the shard's Retry-After hint (0 when absent).
func (a *answer) retrySeconds() int {
	s := a.value(hRetryAfter)
	if s == "" {
		return 0 // Atoi would build an error to say so
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0
	}
	return v
}

// commonValues are the relayed header values dwsd sends, each one shared
// slice, so reading them allocates nothing.
var commonValues = func() map[string][]string {
	m := map[string][]string{}
	for _, v := range []string{"application/json", "text/plain; charset=utf-8",
		"early_reject", "queue_full", "overload", "shed"} {
		m[v] = []string{v}
	}
	for i := 0; i < 100; i++ {
		v := strconv.Itoa(i)
		m[v] = []string{v}
	}
	return m
}()

func headerValue(v []byte) []string {
	if s, ok := commonValues[string(v)]; ok {
		return s
	}
	return []string{string(v)}
}

// readAnswer reads one answer from br into a, and its body into buf,
// which it returns grown for reuse.
func readAnswer(br *bufio.Reader, a *answer, buf []byte) ([]byte, error) {
	*a = answer{}
	budget := maxAnswerHeader
	line, err := readLine(br, &budget)
	if err != nil {
		return buf, err
	}
	// "HTTP/1.1 ddd", then the end of the line or a space and a reason.
	if len(line) < len("HTTP/1.1 200") || string(line[:9]) != "HTTP/1.1 " {
		return buf, errMalformed
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return buf, errMalformed
		}
		a.status = a.status*10 + int(c-'0')
	}
	if a.status < 200 || a.status > 599 || len(line) > 12 && line[12] != ' ' {
		return buf, errMalformed
	}

	length, chunked := int64(-1), false
	for {
		if line, err = readLine(br, &budget); err != nil {
			return buf, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return buf, errMalformed
		}
		key, v := line[:colon], line[colon+1:]
		for _, c := range key {
			if !tokenByte(c) {
				return buf, errMalformed
			}
		}
		for _, c := range v {
			if c != '\t' && (c < ' ' || c == 0x7f) {
				return buf, errMalformed
			}
		}
		v = bytes.Trim(v, " \t")
		switch {
		case equalFold(key, "Content-Length"):
			n, err := strconv.ParseUint(string(v), 10, 63)
			if length >= 0 || err != nil {
				return buf, errMalformed
			}
			length = int64(n)
		case equalFold(key, "Transfer-Encoding"):
			if chunked || !equalFold(v, "chunked") {
				return buf, errMalformed
			}
			chunked = true
		case equalFold(key, "Connection"):
			a.close = a.close || hasToken(v, "close")
		case equalFold(key, "Trailer"):
			return buf, errMalformed
		default:
			for i, k := range relayedHeaders {
				if a.hdr[i] == nil && equalFold(key, k) {
					a.hdr[i] = headerValue(v)
				}
			}
		}
	}

	switch {
	case chunked && length >= 0:
		return buf, errMalformed
	case a.status == 204 || a.status == 304:
		if chunked || length > 0 {
			return buf, errMalformed
		}
	case chunked:
		if buf, err = readToEOF(httputil.NewChunkedReader(br), buf); err != nil {
			return buf, err
		}
		// The last chunk is followed by no trailer, only the final CRLF.
		if end, err := br.Peek(2); err != nil || string(end) != "\r\n" {
			return buf, errMalformed
		}
		br.Discard(2)
		a.body = buf
	case length >= 0:
		if length > maxAnswerBody {
			return buf, errMalformed
		}
		if buf, err = readN(br, buf[:0], int(length)); len(buf) < int(length) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		a.body = buf
	default:
		// Neither length nor chunks: the body runs to the connection's end.
		a.close = true
		if buf, err = readToEOF(br, buf); err != nil {
			return buf, err
		}
		a.body = buf
	}
	return buf, nil
}

// readLine returns the next line of br without its CRLF, charging its
// length to *budget. The line aliases br's buffer.
func readLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errMalformed
	}
	if err != nil {
		return nil, err
	}
	if *budget -= len(line); *budget < 0 || len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errMalformed
	}
	return line[:len(line)-2], nil
}

// readN reads r into buf's backing array until it holds n bytes or
// r fails, growing buf only as bytes arrive: a declared length is not
// allocated before it is received.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// readToEOF reads all of r into buf's backing array, at most maxAnswerBody.
func readToEOF(r io.Reader, buf []byte) ([]byte, error) {
	buf, err := readN(r, buf[:0], maxAnswerBody+1)
	switch {
	case err == io.EOF:
		return buf, nil
	case err == nil:
		return buf, errMalformed
	}
	return buf, err
}

// tokenByte reports whether c may appear in a header name (RFC 9110 tchar).
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// equalFold is ASCII case-insensitive equality, the rule for header names.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasToken reports whether the comma-separated list v holds token.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		item := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if equalFold(bytes.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

// shardClient is one shard's HTTP/1.1 client: its address, and the idle
// keep-alive connections of its pool.
type shardClient struct {
	host   string // the Host header
	prefix string // the shard URL's path, put before every request path
	addr   string // host:port to dial
	tls    *tls.Config
	// dial opens a new connection; the default dials addr over TCP, and
	// TLS for an https shard. Tests replace it.
	dial func(ctx context.Context) (net.Conn, error)

	mu     sync.Mutex
	idle   []*shardConn // most recently used last
	closed bool         // shutDown ran: no connection is pooled again
}

// newShardClient builds the client of the shard at rawURL. An https shard
// is reached over crypto/tls with the system roots, speaking HTTP/1.1.
func newShardClient(rawURL string) (*shardClient, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Host == "" {
		return nil, fmt.Errorf("URL %q has no host", rawURL)
	}
	c := &shardClient{host: u.Host, prefix: u.EscapedPath()}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		c.tls = &tls.Config{ServerName: u.Hostname(), NextProtos: []string{"http/1.1"}}
	default:
		return nil, fmt.Errorf("URL %q is not http or https", rawURL)
	}
	c.addr = net.JoinHostPort(u.Hostname(), port)
	c.dial = c.dialNet
	return c, nil
}

var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

func (c *shardClient) dialNet(ctx context.Context) (net.Conn, error) {
	nc, err := dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil || c.tls == nil {
		return nc, err
	}
	tc := tls.Client(nc, c.tls)
	if err := tc.HandshakeContext(ctx); err != nil {
		nc.Close()
		return nil, err
	}
	return tc, nil
}

// shardConn is one connection to a shard, the buffers its calls reuse,
// and the answer last read on it.
type shardConn struct {
	nc    net.Conn
	br    *bufio.Reader
	req   []byte
	buf   []byte
	abort func() // closes nc; armed on a call's ctx
	answer
}

// call sends one request to the shard and reads the answer on the
// calling goroutine; body nil sends none. If ctx ends first the
// connection is closed, which the shard sees as its request cancelled.
// A reused connection that ends before the first answer byte is how a
// connection the shard closed while idle shows, so the request is sent
// once more, on a new connection; every other failure is returned. The
// caller reads the answer and then hands the connection back with done.
func (c *shardClient) call(ctx context.Context, method, path string, body []byte) (*shardConn, error) {
	cn, reused, err := c.get(ctx, false)
	if err != nil {
		return nil, err
	}
	answered, err := c.exchange(ctx, cn, method, path, body)
	if err != nil && reused && !answered && ctx.Err() == nil {
		cn.nc.Close()
		if cn, _, err = c.get(ctx, true); err != nil {
			return nil, err
		}
		_, err = c.exchange(ctx, cn, method, path, body)
	}
	if err != nil {
		cn.nc.Close()
		return nil, err
	}
	return cn, nil
}

// get pops the most recently used idle connection, or dials a new one
// when there is none or fresh is set.
func (c *shardClient) get(ctx context.Context, fresh bool) (cn *shardConn, reused bool, err error) {
	if !fresh {
		c.mu.Lock()
		if n := len(c.idle); n > 0 {
			cn = c.idle[n-1]
			c.idle[n-1] = nil
			c.idle = c.idle[:n-1]
		}
		c.mu.Unlock()
		if cn != nil {
			return cn, true, nil
		}
	}
	nc, err := c.dial(ctx)
	if err != nil {
		return nil, false, err
	}
	return &shardConn{nc: nc, br: bufio.NewReader(nc), abort: func() { nc.Close() }}, false, nil
}

// exchange writes one request on cn and reads its answer into cn.answer;
// answered reports whether any answer byte arrived.
func (c *shardClient) exchange(ctx context.Context, cn *shardConn, method, path string, body []byte) (answered bool, err error) {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cn.abort)
	}
	cn.req = c.appendRequest(cn.req[:0], method, path, body)
	if _, err = cn.nc.Write(cn.req); err == nil {
		if _, err = cn.br.Peek(1); err == nil {
			answered = true
			cn.buf, err = readAnswer(cn.br, &cn.answer, cn.buf)
		}
	}
	if stop != nil && !stop() {
		// ctx ended while the answer was read, and the connection is
		// being closed under it.
		cn.close = true
		if err == nil {
			err = ctx.Err()
		}
	}
	return answered, err
}

// appendRequest appends the request line, headers and body of one call.
func (c *shardClient) appendRequest(b []byte, method, path string, body []byte) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, c.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// done hands cn back once its answer is read: it is pooled for the next
// call unless the answer closes it, bytes follow the answer, the pool
// holds shardIdleConns already, or the router has shut down.
func (c *shardClient) done(cn *shardConn) {
	cn.body = nil
	if cap(cn.buf) > keepBody {
		cn.buf = nil
	}
	if !cn.close && cn.br.Buffered() == 0 {
		c.mu.Lock()
		if !c.closed && len(c.idle) < shardIdleConns {
			c.idle = append(c.idle, cn)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	cn.nc.Close()
}

// shutDown closes the idle connections, and every later one as it is
// handed back.
func (c *shardClient) shutDown() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}
