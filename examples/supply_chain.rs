//! A supply-chain management workflow — the paper's business-domain
//! application built on CONFLuEnCE ([20] in its references): orders and
//! shipments stream in from different systems; the workflow keeps a live
//! inventory in the relational store, reacts to stock-outs, and uses
//! window semantics to batch restock decisions.
//!
//! ```text
//! cargo run --example supply_chain
//! ```

use confluence::core::actor::IoSignature;
use confluence::core::actors::{Collector, FnActor, TimedSource};
use confluence::core::graph::WorkflowBuilder;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::{GroupBy, WindowSpec};
use confluence::relstore::expr::{col, lit};
use confluence::relstore::{Schema, StoreHandle, ValueType};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::RbScheduler;
use confluence::sched::ScwfDirector;
use confluence::Engine;

fn order(item: &str, qty: i64, t: u64) -> (Timestamp, Token) {
    (
        Timestamp::from_millis(t),
        Token::record().field("item", item).field("qty", qty).build(),
    )
}

fn main() -> confluence::prelude::Result<()> {
    // Inventory lives in the embedded relational store.
    let store = StoreHandle::new();
    store.write(|s| {
        s.create_table(
            "inventory",
            Schema::builder()
                .column("item", ValueType::Str)
                .column("stock", ValueType::Int)
                .primary_key(&["item"])
                .build()?,
        )
    })?;
    for (item, stock) in [("widget", 60i64), ("gadget", 12)] {
        store.write(|s| {
            s.table_mut("inventory")?
                .insert(vec![item.into(), stock.into()])
        })?;
    }

    // Two external streams: customer orders and inbound shipments.
    let orders: Vec<(Timestamp, Token)> = (0..40u64)
        .map(|i| {
            let item = if i % 3 == 0 { "gadget" } else { "widget" };
            order(item, 1 + (i % 4) as i64, i * 50)
        })
        .collect();
    let shipments: Vec<(Timestamp, Token)> =
        vec![order("widget", 30, 700), order("gadget", 10, 1_100)];

    let confirmations = Collector::new();
    let restocks = Collector::new();

    let mut b = WorkflowBuilder::new("supply-chain");
    let order_src = b.add_actor("orders", TimedSource::new(orders));
    let shipment_src = b.add_actor("shipments", TimedSource::new(shipments));

    // Fulfilment: decrement stock; confirm or reject each order.
    let store_f = store.clone();
    let fulfil = b.add_actor(
        "fulfil",
        FnActor::new(
            IoSignature::new(&["orders", "shipments"], &["confirmed", "stockout"]),
            move |w, emit| {
                for event in &w.events {
                    let t = &event.token;
                    let item = t.get("item")?.as_str()?.to_string();
                    let qty = t.int_field("qty")?;
                    let is_shipment = qty >= 10; // shipments are bulk
                    let stock = store_f.read(|s| -> confluence::prelude::Result<i64> {
                        let rows = s
                            .table("inventory")?
                            .select(Some(&col("item").eq(lit(item.as_str()))))?;
                        Ok(rows.first().map(|r| r[1].as_int()).transpose()?.unwrap_or(0))
                    })?;
                    let new_stock = if is_shipment { stock + qty } else { stock - qty };
                    if !is_shipment && new_stock < 0 {
                        emit(1, t.clone()); // stock-out
                        continue;
                    }
                    store_f.write(|s| {
                        s.table_mut("inventory")?
                            .upsert(vec![item.as_str().into(), new_stock.into()])
                    })?;
                    if !is_shipment {
                        emit(0, t.clone());
                    }
                }
                Ok(())
            },
        ),
    );

    // Restock planning: batch stock-outs per item (5-second tumbling
    // windows with a formation timeout) into one purchase order each.
    let plan = b.add_actor(
        "plan-restock",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            let mut total = 0;
            for t in w.tokens() {
                total += t.int_field("qty")?;
            }
            let item = w.events[0].token.get("item")?.clone();
            emit(
                0,
                Token::record()
                    .field("item", item)
                    .field("purchase", total + 20) // order extra buffer
                    .build(),
            );
            Ok(())
        }),
    );
    let confirm_sink = b.add_actor("confirmed", confirmations.actor());
    let restock_sink = b.add_actor("purchases", restocks.actor());

    b.link((order_src, "out"), (fulfil, "orders"))?;
    b.link((shipment_src, "out"), (fulfil, "shipments"))?;
    b.link((fulfil, "confirmed"), (confirm_sink, "in"))?;
    b.link_windowed(
        (fulfil, "stockout"),
        (plan, "in"),
        WindowSpec::time(Micros::from_secs(5), Micros::from_secs(5))
            .group_by(GroupBy::fields(&["item"]))
            .with_timeout(Micros::from_secs(5)),
    )?;
    b.link((plan, "out"), (restock_sink, "in"))?;
    let workflow = b.build()?;

    // Rate-Based scheduling: restock planning is cheap and productive, so
    // the Highest Rate policy keeps it timely.
    let mut engine = Engine::new(workflow).with_director(ScwfDirector::virtual_time(
        Box::new(RbScheduler::new()),
        Box::new(TableCostModel::uniform(Micros(80), Micros(10))),
    ));
    engine.run()?;

    let final_stock: Vec<(String, i64)> = store.read(|s| {
        s.table("inventory")
            .unwrap()
            .iter()
            .map(|r| (r.cell(0).as_str().unwrap().to_string(), r.cell(1).as_int().unwrap()))
            .collect()
    });
    println!("confirmed orders: {}", confirmations.len());
    println!("purchase orders:  {}", restocks.len());
    for t in restocks.tokens() {
        println!("  RESTOCK {t}");
    }
    println!("final inventory:  {final_stock:?}");
    println!("\n{}", engine.snapshot().render_table());
    assert!(!confirmations.is_empty());
    Ok(())
}
