//! Wire-format coverage of the v-command protocol: every `VCommand`
//! variant (and both `VResponse` arms) must survive a JSON round trip
//! byte-for-byte, and malformed payloads must surface as parse errors,
//! never panics.

use vgraph::{diff, Graph, ViewInst};
use visualinux::proto::{VCommand, VResponse, VERSION};
use vpanels::{PaneId, SplitDir};

fn sample_graph() -> Graph {
    let mut g = Graph::new();
    let (a, _) = g.intern(0x1000, "Task", "task_struct", 0x40);
    let (b, _) = g.intern(0x2000, "Task", "task_struct", 0x40);
    g.get_mut(a).views.push(ViewInst {
        name: "default".into(),
        items: vec![
            vgraph::Item::Text {
                name: "pid".into(),
                value: "1".into(),
                raw: Some(1),
            },
            vgraph::Item::Link {
                name: "next".into(),
                target: b,
            },
        ],
    });
    g.roots.push(a);
    g
}

fn mutated_graph() -> Graph {
    let mut g = sample_graph();
    let id = g.roots[0];
    if let vgraph::Item::Text { value, raw, .. } = &mut g.get_mut(id).views[0].items[0] {
        *value = "2".into();
        *raw = Some(2);
    }
    g
}

/// Every wire variant under test, one constructor per `VCommand` arm.
fn all_commands() -> Vec<(&'static str, VCommand)> {
    let base = sample_graph();
    let delta = diff::diff(&base, &mutated_graph());
    vec![
        (
            "vplot",
            VCommand::Vplot {
                graph: base,
                source: "plot @root".into(),
            },
        ),
        (
            "vctrl_apply",
            VCommand::VctrlApply {
                pane: PaneId(3),
                viewql: "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true".into(),
            },
        ),
        (
            "vctrl_split",
            VCommand::VctrlSplit {
                pane: PaneId(1),
                dir: SplitDir::Horizontal,
            },
        ),
        ("vctrl_focus", VCommand::VctrlFocus { addr: 0xffff_8880 }),
        (
            "vchat",
            VCommand::Vchat {
                pane: PaneId(0),
                message: "shrink idle tasks".into(),
            },
        ),
        (
            "vplot_request",
            VCommand::VplotRequest {
                viewcl: "define T as Box<task_struct> [ Text pid ]".into(),
            },
        ),
        (
            "vplot_delta",
            VCommand::VplotDelta {
                source: "plot @root".into(),
                seq: 7,
                delta,
            },
        ),
        (
            "vack",
            VCommand::Vack {
                source: "plot @root".into(),
                seq: 7,
                proto: VERSION,
            },
        ),
        (
            "vattach",
            VCommand::Vattach {
                session: "replay-03".into(),
            },
        ),
    ]
}

#[test]
fn every_vcommand_variant_round_trips() {
    let cmds = all_commands();
    // Exhaustiveness guard: adding a VCommand variant must extend this
    // test. The match below fails to compile on a new variant.
    for (_, c) in &cmds {
        match c {
            VCommand::Vplot { .. }
            | VCommand::VctrlApply { .. }
            | VCommand::VctrlSplit { .. }
            | VCommand::VctrlFocus { .. }
            | VCommand::Vchat { .. }
            | VCommand::VplotRequest { .. }
            | VCommand::VplotDelta { .. }
            | VCommand::Vack { .. }
            | VCommand::Vattach { .. } => {}
        }
    }
    for (tag, cmd) in cmds {
        let json = cmd.to_json();
        assert!(
            json.contains(&format!("\"command\":\"{tag}\"")),
            "{tag}: tag missing in {json}"
        );
        let back = VCommand::from_json(&json).unwrap_or_else(|e| panic!("{tag}: {e}"));
        // Serialization is deterministic, so a byte-identical re-encode
        // proves the round trip lost nothing.
        assert_eq!(back.to_json(), json, "{tag}: round trip changed bytes");
    }
}

#[test]
fn vack_carries_the_protocol_version_and_defaults_for_old_peers() {
    // The current revision round-trips through the stamped field.
    const _: () = assert!(VERSION >= 2, "binary framing shipped at revision 2");
    let ack = VCommand::Vack {
        source: "plot @root".into(),
        seq: 3,
        proto: VERSION,
    };
    let json = ack.to_json();
    assert!(
        json.contains(&format!("\"proto\":{VERSION}")),
        "version stamp missing in {json}"
    );
    let VCommand::Vack { proto, .. } = VCommand::from_json(&json).unwrap() else {
        panic!("variant changed in flight");
    };
    assert_eq!(proto, VERSION);
    // Pre-stamping peers omit the field entirely; serde defaults it to 0
    // so the serving side can tell "old client" from any real revision.
    let legacy = "{\"command\":\"vack\",\"source\":\"plot @root\",\"seq\":3}";
    let VCommand::Vack { source, seq, proto } = VCommand::from_json(legacy).unwrap() else {
        panic!("legacy ack no longer parses");
    };
    assert_eq!((source.as_str(), seq, proto), ("plot @root", 3, 0));
}

#[test]
fn delta_payload_survives_the_wire_semantically() {
    let base = sample_graph();
    let new = mutated_graph();
    let cmd = VCommand::VplotDelta {
        source: "plot @root".into(),
        seq: 1,
        delta: diff::diff(&base, &new),
    };
    let back = VCommand::from_json(&cmd.to_json()).unwrap();
    let VCommand::VplotDelta { seq, delta, .. } = back else {
        panic!("variant changed in flight");
    };
    assert_eq!(seq, 1);
    let rebuilt = diff::apply(&base, &delta).unwrap();
    assert_eq!(rebuilt.to_json(), new.to_json());
}

#[test]
fn responses_round_trip() {
    for resp in [
        VResponse::Ok {
            pane: Some(PaneId(2)),
            synthesized: Some("UPDATE a WITH collapsed: true".into()),
        },
        VResponse::Ok {
            pane: None,
            synthesized: None,
        },
        VResponse::Err {
            message: "no such pane".into(),
        },
    ] {
        let json = resp.to_json();
        let back = VResponse::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn malformed_json_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        "not json at all",
        "42",
        "[]",
        "{}",                                // no command tag
        "{\"command\":\"no_such_command\"}", // unknown tag
        "{\"command\":\"vack\"}",            // missing fields
        "{\"command\":\"vctrl_focus\",\"addr\":\"not a number\"}",
        "{\"command\":\"vplot_delta\",\"source\":\"s\",\"seq\":1,\"delta\":{\"base_len\":\"x\"}}",
        // Routing frames: a vattach must carry a string session key.
        "{\"command\":\"vattach\"}",
        "{\"command\":\"vattach\",\"session\":42}",
        "{\"command\":\"vattach\",\"session\":null}",
        "{\"command\":\"vattach\",\"session\":[\"a\"]}",
    ] {
        assert!(
            VCommand::from_json(bad).is_err(),
            "accepted malformed payload: {bad:?}"
        );
    }
    assert!(VResponse::from_json("{\"status\":\"nope\"}").is_err());
}
