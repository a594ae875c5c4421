//! A minimal HTTP/1.0 request parser and static page store — just enough to
//! serve the "static web pages" workload of Table 2.

use std::collections::HashMap;

/// A parsed HTTP request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method (only GET is meaningful to the page store).
    pub method: String,
    /// The requested path.
    pub path: String,
}

impl HttpRequest {
    /// Parse the first line of an HTTP request. Returns `None` for
    /// syntactically hopeless input.
    pub fn parse(raw: &[u8]) -> Option<HttpRequest> {
        let text = String::from_utf8_lossy(raw);
        let first_line = text.lines().next()?;
        let mut parts = first_line.split_whitespace();
        let method = parts.next()?.to_string();
        let path = parts.next()?.to_string();
        Some(HttpRequest { method, path })
    }
}

/// The static page store served by every Apache variant.
#[derive(Debug, Clone)]
pub struct PageStore {
    pages: HashMap<String, Vec<u8>>,
}

impl Default for PageStore {
    fn default() -> Self {
        PageStore::sample()
    }
}

impl PageStore {
    /// An empty store.
    pub fn new() -> PageStore {
        PageStore {
            pages: HashMap::new(),
        }
    }

    /// The sample site used by tests and benchmarks.
    pub fn sample() -> PageStore {
        let mut store = PageStore::new();
        store.add(
            "/",
            b"<html><body>wedge-apache index</body></html>".to_vec(),
        );
        store.add(
            "/index.html",
            b"<html><body>wedge-apache index</body></html>".to_vec(),
        );
        store.add(
            "/account",
            b"<html><body>account balance: 1234.56</body></html>".to_vec(),
        );
        store.add("/static/logo", vec![0x89u8; 512]);
        store
    }

    /// Add (or replace) a page.
    pub fn add(&mut self, path: &str, body: Vec<u8>) {
        self.pages.insert(path.to_string(), body);
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Build the HTTP response for a request.
    pub fn respond(&self, request: &HttpRequest) -> Vec<u8> {
        if request.method != "GET" {
            return b"HTTP/1.0 405 Method Not Allowed\r\n\r\n".to_vec();
        }
        match self.pages.get(&request.path) {
            Some(body) => {
                let mut response =
                    format!("HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n", body.len())
                        .into_bytes();
                response.extend_from_slice(body);
                response
            }
            None => b"HTTP/1.0 404 Not Found\r\n\r\n".to_vec(),
        }
    }

    /// Serialise the store for placement in tagged memory (path\tbody-hex).
    pub fn serialize(&self) -> Vec<u8> {
        let mut paths: Vec<&String> = self.pages.keys().collect();
        paths.sort();
        let mut out = String::new();
        for path in paths {
            let body = &self.pages[path];
            out.push_str(path);
            out.push('\t');
            out.push_str(&wedge_crypto::sha256::to_hex(body));
            out.push('\t');
            out.push_str(&body.len().to_string());
            out.push('\n');
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines() {
        let req = HttpRequest::parse(b"GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/index.html");
        assert!(HttpRequest::parse(b"garbage").is_none());
        assert!(HttpRequest::parse(b"").is_none());
    }

    #[test]
    fn request_roundtrips_through_bytes() {
        let req = HttpRequest {
            method: "GET".into(),
            path: "/account".into(),
        };
        assert_eq!(
            HttpRequest::parse(b"GET /account HTTP/1.0\r\n\r\n").unwrap(),
            req
        );
    }

    #[test]
    fn responds_200_404_405() {
        let store = PageStore::sample();
        let ok = store.respond(&HttpRequest::parse(b"GET / HTTP/1.0").unwrap());
        assert!(ok.starts_with(b"HTTP/1.0 200 OK"));
        assert!(ok.windows(5).any(|w| w == b"index"));
        let missing = store.respond(&HttpRequest::parse(b"GET /nope HTTP/1.0").unwrap());
        assert!(missing.starts_with(b"HTTP/1.0 404"));
        let bad_method = store.respond(&HttpRequest::parse(b"POST / HTTP/1.0").unwrap());
        assert!(bad_method.starts_with(b"HTTP/1.0 405"));
    }

    #[test]
    fn serialisation_is_stable_and_nonempty() {
        let store = PageStore::sample();
        assert_eq!(store.serialize(), store.serialize());
        assert!(!store.serialize().is_empty());
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
    }
}
