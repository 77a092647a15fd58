//! Registry counters read from outside the engine: a batch run's
//! [`dfo_obs::Registry::snapshot`], or the daemon's rank-0 `/metrics.json`
//! scrape, flattened into one map so both feed the same per-layer queries.

use dfo_obs::json::{self, JsonValue};
use dfo_obs::{SampleValue, Snapshot};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

type Labels = Vec<(String, String)>;

/// One series: a counter or gauge value, or a histogram's sum and count.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    value: f64,
    count: f64,
}

/// Every series of a registry at one instant, keyed by family and labels.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<(String, Labels), Sample>);

impl Counters {
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut out = BTreeMap::new();
        for (family, fam) in &snap.families {
            for s in &fam.series {
                let sample = match &s.value {
                    SampleValue::Counter(v) => Sample { value: *v as f64, count: 0.0 },
                    SampleValue::Gauge(v) => Sample { value: *v, count: 0.0 },
                    SampleValue::Histogram(h) => Sample { value: h.sum, count: h.count() as f64 },
                };
                out.insert((family.clone(), s.labels.clone()), sample);
            }
        }
        Self(out)
    }

    /// Parses the JSON rendering of a snapshot (`Snapshot::to_json`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let JsonValue::Obj(families) = json::parse(text)? else {
            return Err("metrics JSON is not an object".into());
        };
        let mut out = BTreeMap::new();
        for (family, fam) in families {
            let series = fam.get("series").and_then(JsonValue::as_array).unwrap_or(&[]);
            for s in series {
                let mut labels: Labels = match s.get("labels") {
                    Some(JsonValue::Obj(l)) => l
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                        .collect(),
                    _ => Vec::new(),
                };
                labels.sort();
                let num = |k: &str| s.get(k).and_then(JsonValue::as_f64);
                let sample = match num("value") {
                    Some(v) => Sample { value: v, count: 0.0 },
                    None => Sample {
                        value: num("sum").unwrap_or(0.0),
                        count: num("count").unwrap_or(0.0),
                    },
                };
                out.insert((family.clone(), labels), sample);
            }
        }
        Ok(Self(out))
    }

    /// `self − before`, series by series (series absent before count from 0).
    pub fn delta(&self, before: &Counters) -> Counters {
        let mut out = self.0.clone();
        for (key, s) in out.iter_mut() {
            if let Some(b) = before.0.get(key) {
                s.value -= b.value;
                s.count -= b.count;
            }
        }
        Counters(out)
    }

    fn matching<'a>(
        &'a self,
        family: &'a str,
        with: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = (&'a Labels, &'a Sample)> + 'a {
        self.0.iter().filter_map(move |((f, labels), s)| {
            let hit = f == family
                && with.iter().all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v));
            hit.then_some((labels, s))
        })
    }

    /// Sum of the values (histograms: sums) of every matching series.
    pub fn sum(&self, family: &str, with: &[(&str, &str)]) -> f64 {
        self.matching(family, with).map(|(_, s)| s.value).sum()
    }

    /// Sum of the observation counts of every matching histogram series.
    pub fn count(&self, family: &str) -> f64 {
        self.matching(family, &[]).map(|(_, s)| s.count).sum()
    }

    /// The family's values summed per `rank` label.
    pub fn per_rank(&self, family: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (labels, s) in self.matching(family, &[]) {
            let rank = labels.iter().find(|(k, _)| k == "rank").map(|(_, v)| v.clone());
            *out.entry(rank.unwrap_or_default()).or_insert(0.0) += s.value;
        }
        out
    }

    /// The largest per-rank value of the family (0 when absent).
    pub fn max_rank(&self, family: &str) -> f64 {
        self.per_rank(family).into_values().fold(0.0, f64::max)
    }
}

/// `GET /metrics.json` from the daemon's scrape endpoint.
pub fn scrape(addr: &str) -> Result<Counters, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("metrics connect {addr}: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let req = format!("GET /metrics.json HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    sock.write_all(req.as_bytes()).map_err(|e| format!("metrics request: {e}"))?;
    let mut resp = String::new();
    sock.read_to_string(&mut resp).map_err(|e| format!("metrics read: {e}"))?;
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).ok_or("metrics: no HTTP body")?;
    Counters::from_json(body)
}
