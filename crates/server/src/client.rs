//! A blocking TCP client for the serving plane — the socket counterpart of
//! [`templar_service::RegistryClient`], speaking either codec.
//!
//! [`TcpClient::connect_json`] opens a bare JSON-lines session (what a
//! human with netcat gets); [`TcpClient::connect_binary`] and
//! [`TcpClient::connect_negotiated`] perform the `TPLR` handshake first.
//! The typed methods mirror `RegistryClient` one-for-one.  For pipelining,
//! [`send`](TcpClient::send) and [`recv`](TcpClient::recv) are exposed
//! directly: issue several sends, then collect each response by its
//! correlation id — responses arriving out of order are parked until their
//! id is asked for.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use templar_api::binary::{self, CodecError, WireCodec, HANDSHAKE_LEN};
use templar_api::{
    decode_response, encode_request, ApiError, HealthReport, MetricsReport, RequestBody,
    RequestEnvelope, ResponseBody, SlowQueryReport, TranslateRequest, TranslateResponse,
};

/// Everything that can go wrong between a typed call and its typed answer.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (includes a server that closed mid-response).
    Io(io::Error),
    /// The peer's bytes did not decode in the negotiated codec.
    Codec(CodecError),
    /// The server answered with a typed protocol error.
    Api(ApiError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Codec(e) => write!(f, "undecodable response: {e}"),
            ClientError::Api(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> ClientError {
        ClientError::Codec(e)
    }
}

impl From<ApiError> for ClientError {
    fn from(e: ApiError) -> ClientError {
        ClientError::Api(e)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct TcpClient {
    stream: TcpStream,
    codec: WireCodec,
    next_id: u64,
    /// Responses read while waiting for a different correlation id.
    parked: HashMap<u64, Result<ResponseBody, ApiError>>,
    inbuf: Vec<u8>,
}

impl TcpClient {
    /// Connect without a handshake: a bare JSON-lines session, exactly the
    /// bytes `nc` would exchange.
    pub fn connect_json(addr: impl ToSocketAddrs) -> Result<TcpClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TcpClient {
            stream,
            codec: WireCodec::Json,
            next_id: 1,
            parked: HashMap::new(),
            inbuf: Vec::new(),
        })
    }

    /// Connect and negotiate the binary codec.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<TcpClient, ClientError> {
        Self::connect_negotiated(addr, WireCodec::Binary)
    }

    /// Connect and negotiate `codec` through the `TPLR` hello/ack
    /// handshake.  Fails with a typed [`CodecError`] when the server
    /// rejects the hello (e.g. a protocol-version mismatch).
    pub fn connect_negotiated(
        addr: impl ToSocketAddrs,
        codec: WireCodec,
    ) -> Result<TcpClient, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&binary::encode_hello(codec))?;
        let mut ack = [0u8; HANDSHAKE_LEN];
        stream.read_exact(&mut ack)?;
        let granted = binary::decode_ack(&ack)?;
        Ok(TcpClient {
            stream,
            codec: granted,
            next_id: 1,
            parked: HashMap::new(),
            inbuf: Vec::new(),
        })
    }

    /// The codec this connection settled on.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Send one request without waiting for its response; returns the
    /// correlation id to [`recv`](Self::recv) later.  The pipelining
    /// primitive.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.codec {
            WireCodec::Json => {
                let mut line = encode_request(&RequestEnvelope::new(id, body)).into_bytes();
                line.push(b'\n');
                self.stream.write_all(&line)?;
            }
            WireCodec::Binary => {
                self.stream
                    .write_all(&binary::encode_request_frame(id, &body))?;
            }
        }
        Ok(id)
    }

    /// Block until the response with correlation id `id` arrives.  Other
    /// responses read along the way are parked for their own `recv` calls
    /// — out-of-order completion is expected on a pipelined connection.
    pub fn recv(&mut self, id: u64) -> Result<ResponseBody, ClientError> {
        loop {
            if let Some(outcome) = self.parked.remove(&id) {
                return outcome.map_err(ClientError::Api);
            }
            let (got, outcome) = self.read_response()?;
            if got == id {
                return outcome.map_err(ClientError::Api);
            }
            self.parked.insert(got, outcome);
        }
    }

    fn roundtrip(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let id = self.send(body)?;
        self.recv(id)
    }

    fn read_response(&mut self) -> Result<(u64, Result<ResponseBody, ApiError>), ClientError> {
        match self.codec {
            WireCodec::Json => {
                let line = self.read_line()?;
                let envelope = decode_response(&line).map_err(ClientError::Api)?;
                Ok((envelope.id, envelope.into_result()))
            }
            WireCodec::Binary => {
                while self.inbuf.len() < 4 {
                    self.fill()?;
                }
                let len = u32::from_le_bytes([
                    self.inbuf[0],
                    self.inbuf[1],
                    self.inbuf[2],
                    self.inbuf[3],
                ]) as usize;
                binary::check_frame_len(len, binary::MAX_FRAME_BYTES)?;
                while self.inbuf.len() < 4 + len {
                    self.fill()?;
                }
                let payload: Vec<u8> = self.inbuf.drain(..4 + len).skip(4).collect();
                Ok(binary::decode_response_frame(&payload)?)
            }
        }
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        loop {
            if let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
                let line = String::from_utf8(line).map_err(|e| {
                    ClientError::Codec(CodecError::Malformed {
                        detail: format!("response line is not utf-8: {e}"),
                    })
                })?;
                return Ok(line.trim_end().to_string());
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> Result<(), ClientError> {
        let mut chunk = [0u8; 8 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            )));
        }
        self.inbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    // -- typed methods, mirroring `templar_service::RegistryClient` --------

    /// Translate one request over the wire.
    pub fn translate(
        &mut self,
        request: TranslateRequest,
    ) -> Result<TranslateResponse, ClientError> {
        match self.roundtrip(RequestBody::Translate(request))? {
            ResponseBody::Translated(response) => Ok(response),
            other => Err(unexpected("Translate", &other)),
        }
    }

    /// Submit answered SQL to a tenant's log.
    pub fn submit_sql(&mut self, tenant: &str, sql: &str) -> Result<(), ClientError> {
        match self.roundtrip(RequestBody::SubmitSql {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::SqlAccepted => Ok(()),
            other => Err(unexpected("SubmitSql", &other)),
        }
    }

    /// Report accepted SQL back to a tenant's learning loop.
    pub fn feedback(&mut self, tenant: &str, sql: &str) -> Result<(), ClientError> {
        match self.roundtrip(RequestBody::Feedback {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::FeedbackAccepted => Ok(()),
            other => Err(unexpected("Feedback", &other)),
        }
    }

    /// Fetch a tenant's health report — answered even when the server is
    /// shedding admission-controlled work, so probes stay honest under
    /// overload and in degraded read-only mode.
    pub fn health(&mut self, tenant: &str) -> Result<HealthReport, ClientError> {
        match self.roundtrip(RequestBody::Health {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Health(report) => Ok(report),
            other => Err(unexpected("Health", &other)),
        }
    }

    /// Fetch a tenant's serving metrics.
    pub fn metrics(&mut self, tenant: &str) -> Result<MetricsReport, ClientError> {
        match self.roundtrip(RequestBody::Metrics {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Metrics(report) => Ok(*report),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Fetch a tenant's captured slow queries, slowest first.
    pub fn slow_queries(&mut self, tenant: &str) -> Result<Vec<SlowQueryReport>, ClientError> {
        match self.roundtrip(RequestBody::SlowQueries {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::SlowQueries(reports) => Ok(reports),
            other => Err(unexpected("SlowQueries", &other)),
        }
    }

    /// Fetch the Prometheus exposition — one tenant, or all when `None`.
    pub fn prometheus(&mut self, tenant: Option<&str>) -> Result<String, ClientError> {
        match self.roundtrip(RequestBody::Prometheus {
            tenant: tenant.map(str::to_string),
        })? {
            ResponseBody::Prometheus(text) => Ok(text),
            other => Err(unexpected("Prometheus", &other)),
        }
    }
}

fn unexpected(call: &str, body: &ResponseBody) -> ClientError {
    ClientError::Api(ApiError::MalformedEnvelope {
        detail: format!("unexpected response body for {call}: {body:?}"),
    })
}
