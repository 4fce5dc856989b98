//! The storage-specific image of a [`Partitioning`].
//!
//! Tables, schemas, values and every primitive are serialised by
//! [`paq_relational::codec`] — the same functions the wire protocol
//! calls; this module adds only the one structure that exists on disk
//! and nowhere else.

use paq_partition::{Group, Partitioning};
use paq_relational::codec::{put_duration, put_f64, put_string, put_u64, CodecResult, Cursor};

/// Append an encoding of a [`Partitioning`] to `out`.
pub fn encode_partitioning(out: &mut Vec<u8>, p: &Partitioning) {
    put_u64(out, p.attributes.len() as u64);
    for a in &p.attributes {
        put_string(out, a);
    }
    put_duration(out, p.build_time);
    put_u64(out, p.groups.len() as u64);
    for g in &p.groups {
        put_u64(out, g.gid as u64);
        put_u64(out, g.rows.len() as u64);
        for &r in &g.rows {
            put_u64(out, r as u64);
        }
        put_u64(out, g.representative.len() as u64);
        for &v in &g.representative {
            put_f64(out, v);
        }
        put_f64(out, g.radius);
    }
}

/// Decode a partitioning encoded by [`encode_partitioning`].
pub fn decode_partitioning(cur: &mut Cursor<'_>) -> CodecResult<Partitioning> {
    let nattrs = cur.count(8)?;
    let mut attributes = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        attributes.push(cur.string()?);
    }
    let build_time = cur.duration()?;
    let ngroups = cur.count(32)?; // gid + two counts + radius
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let gid = cur.i64()?;
        let nrows = cur.count(8)?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            rows.push(cur.u64()? as usize);
        }
        let nrep = cur.count(8)?;
        let mut representative = Vec::with_capacity(nrep);
        for _ in 0..nrep {
            representative.push(cur.f64()?);
        }
        let radius = cur.f64()?;
        groups.push(Group {
            gid,
            rows,
            representative,
            radius,
        });
    }
    Ok(Partitioning {
        attributes,
        groups,
        build_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn partitioning_round_trips() {
        let p = Partitioning {
            attributes: vec!["r".into(), "redshift".into()],
            groups: vec![
                Group {
                    gid: 0,
                    rows: vec![0, 2, 4],
                    representative: vec![1.5, -2.25],
                    radius: 0.5,
                },
                Group {
                    gid: 1,
                    rows: vec![1, 3],
                    representative: vec![9.0, 4.5],
                    radius: 1.25,
                },
            ],
            build_time: Duration::from_micros(1234),
        };
        let mut buf = Vec::new();
        encode_partitioning(&mut buf, &p);
        let mut cur = Cursor::new(&buf);
        let q = decode_partitioning(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(q.attributes, p.attributes);
        assert_eq!(q.groups.len(), 2);
        assert_eq!(q.groups[0].rows, vec![0, 2, 4]);
        assert_eq!(q.groups[1].representative, vec![9.0, 4.5]);
        assert_eq!(q.build_time, p.build_time);
    }
}
