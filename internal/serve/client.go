package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is a binary-protocol connection to a prtreeserve server. It is
// not safe for concurrent use: the protocol is one request frame followed
// by one response frame, so callers wanting parallelism open one Client
// per goroutine (or share a RobustClient, which pools them).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
}

// Dial connects to a binary-protocol listener at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. a net.Pipe end in
// tests) in the protocol.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and decodes its response. A *RemoteError carries a
// server-side rejection (overload, deadline, bad request); other errors
// are transport or framing failures.
func (c *Client) Do(req Request) (Result, error) {
	var err error
	c.buf, err = EncodeRequest(c.buf[:0], req)
	if err != nil {
		return Result{}, err
	}
	if err := WriteFrame(c.bw, c.buf); err != nil {
		return Result{}, fmt.Errorf("serve: writing request: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return Result{}, fmt.Errorf("serve: writing request: %w", err)
	}
	payload, err := ReadFrame(c.br, MaxResponseFrame)
	if err != nil {
		return Result{}, fmt.Errorf("serve: reading response: %w", err)
	}
	return DecodeResponse(payload)
}
